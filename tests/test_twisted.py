import math
import warnings

import numpy as np
import pytest

from twistnorm import (NumericSignal, PairSeq, VecSeq, build_space,
                       equivalence_certificate, from_preset, identity_theta,
                       kp_F, luxemburg_norm, luxemburg_norm_batch,
                       parse_preset, power, quasi_linearity_constant,
                       quasi_triangle_constant, twisted_norm,
                       twisted_norm_batch)
from twistnorm import sampling, twisted

# frozen expected values
DISJOINT_DEVIATION_RATIO = 0.2450645358672141   # sqrt(2)*log(sqrt(2)) / 2


def pair(entries):
    """entries: list of (index, x, y)."""
    idx = tuple(i for i, _, _ in entries)
    return PairSeq(idx, np.array([x for _, x, _ in entries], dtype=float),
                   np.array([y for _, _, y in entries], dtype=float))


def dense_rows(rng, count, n, d):
    """count arrays of n random rows of dimension d, drawn from rng."""
    return [sampling.random_rows(rng.random((n, sampling.row_width(d))), d)
            for _ in range(count)]


# -- pair container -----------------------------------------------------------

def test_pairseq_validation():
    with pytest.raises(ValueError):
        PairSeq((1, 1), np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PairSeq((2, 1), np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PairSeq((1,), np.array([math.inf]), np.array([0.0]))
    with pytest.raises(ValueError):
        PairSeq((1, 2), np.array([1.0]), np.array([1.0, 2.0]))


def test_pairseq_drops_double_zero_rows():
    p = pair([(1, 0.0, 0.0), (2, 1.0, 0.0), (3, 0.0, 2.0)])
    assert p.indices == (2, 3)
    assert pair([(4, 0.0, 0.0)]).indices == ()


def test_pairseq_json_round_trip():
    p = pair([(2, 1.5, -0.5), (9, 0.0, 3.0)])
    q = PairSeq.from_json(p.to_json())
    assert q.indices == p.indices
    assert np.array_equal(q.xv, p.xv) and np.array_equal(q.yv, p.yv)
    with pytest.raises(ValueError):
        PairSeq.from_json(VecSeq.from_values([1.0]).to_json())   # dim 1


def test_pairseq_merge_and_scaling():
    a = pair([(1, 1.0, 0.0)])
    b = pair([(1, -1.0, 2.0), (5, 3.0, 0.0)])
    s = a + b
    assert s.indices == (1, 5)
    assert s.xv[0] == 0.0 and s.yv[0] == 2.0
    assert (2.0 * a).xv[0] == 2.0
    m = pair([(2, 2.0, 5.0)]) + pair([(1, 1.0, 0.0)])
    assert m.indices == (1, 2)
    assert m.yv.tolist() == [0.0, 5.0]


# -- the quasi-linear map -----------------------------------------------------

def test_F_of_unit_vector_is_zero(z2_noenv):
    out = kp_F(z2_noenv, VecSeq.from_values([1.0]))
    assert out.n_terms == 0


def test_F_two_equal_entries(z2_noenv):
    out = kp_F(z2_noenv, VecSeq.from_values([1.0, 1.0]))
    want = math.log(math.sqrt(2.0))
    assert np.allclose(out.vectors[:, 0], want, rtol=1e-12)


def test_F_homogeneity(z2_noenv):
    y = VecSeq.from_values([0.3, -1.7, 0.02, 4.0])
    base = kp_F(z2_noenv, y)
    for lam in (-1.0, 0.5, 7.0):
        scaled = kp_F(z2_noenv, y.scaled(lam))
        assert np.allclose(scaled.vectors, base.vectors * lam, rtol=1e-11)
    assert kp_F(z2_noenv, VecSeq.from_values([0.0])).n_terms == 0


def test_F_of_zero_sequence_has_no_terms(z2_noenv):
    # the empty row has norm 0 and twists without a warning from log(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = kp_F(z2_noenv, VecSeq.from_entries(1, []))
    assert out.n_terms == 0 and out.vectors.shape == (0, 1)


def test_twist_takes_the_logs_apart(z2_noenv):
    # ||y|| / |y_2| = 1e310 overflows; log ||y|| - log |y_2| does not
    y = [1e10, 1e-300]
    p = PairSeq((1, 2), [0.0, 0.0], y)
    assert twisted_norm(z2_noenv, p) == pytest.approx(1e10, rel=1e-15)
    out = kp_F(z2_noenv, VecSeq.from_values(y))
    assert out.indices == (2,)
    want = 1e-300 * (math.log(1e10) - math.log(1e-300))    # 7.138e-298
    assert out.vectors[0, 0] == pytest.approx(want, rel=1e-12)


def test_twisted_norm_beyond_float64_raises(z2_noenv):
    # ||y|| = 1.4e308 and ||x - F(y)|| = 4.9e307 are finite, their sum is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericSignal,
                           match=r"quasi-norm .* overflows float64 in 1 of 1 "
                                 r"rows, first rows \[0\]"):
            twisted_norm(z2_noenv, PairSeq((1, 2), [0.0, 0.0], [1e308, 1e308]))
        # here x - F(y) itself leaves the float64 range in row 1
        X = np.array([[1.0, 0.0], [1.7e308, 1.7e308]])
        Y = np.array([[0.0, 1.0], [-1e308, -1e308]])
        with pytest.raises(NumericSignal, match=r"rows \[1\]"):
            twisted_norm_batch(z2_noenv, X, Y)


def test_F_skips_zero_coordinates(z2_noenv):
    y = VecSeq.from_entries(1, [(1, [1.0]), (3, [0.0]), (4, [1.0])])
    out = kp_F(z2_noenv, y)
    assert out.indices == (1, 4)


# -- the quasi-norm -----------------------------------------------------------

def test_twisted_norm_anchors(z2_noenv):
    assert twisted_norm(z2_noenv, pair([(1, 1.0, 0.0)])) == 1.0
    assert twisted_norm(z2_noenv, pair([(1, 0.0, 1.0)])) == 1.0
    assert twisted_norm(z2_noenv, pair([(1, 0.0, 0.0)])) == 0.0


def test_twisted_norm_on_x_only_is_luxemburg(z2_noenv):
    p = pair([(1, 3.0, 0.0), (2, -4.0, 0.0)])
    assert twisted_norm(z2_noenv, p) == pytest.approx(5.0, rel=1e-12)


def test_twisted_norm_homogeneity(z2_noenv):
    p = pair([(1, 0.4, -1.0), (2, 2.0, 0.3), (7, -0.1, 0.0)])
    n = twisted_norm(z2_noenv, p)
    for lam in (0.25, 3.0, -2.0):
        assert twisted_norm(z2_noenv, p.scaled(lam)) == pytest.approx(
            abs(lam) * n, rel=1e-11)


def test_twisted_norm_batch_matches_singles(z2_noenv):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 5)) * 2.0
    Y = rng.standard_normal((6, 5)) * 2.0
    X[rng.random((6, 5)) < 0.3] = 0.0
    Y[rng.random((6, 5)) < 0.3] = 0.0
    Y[0] = 0.0
    X[1, 2] = Y[1, 2] = 0.0
    out = twisted_norm_batch(z2_noenv, X, Y)
    for b in range(6):
        p = PairSeq(tuple(range(1, 6)), X[b], Y[b])
        assert twisted_norm(z2_noenv, p) == out[b]


# -- empirical constants ------------------------------------------------------

def test_quasilinearity_disjoint_oracle(z2_noenv):
    u = VecSeq.from_values([1.0])
    v = VecSeq.from_entries(1, [(2, [1.0])])
    dev = kp_F(z2_noenv, u + v).sub(kp_F(z2_noenv, u)).sub(kp_F(z2_noenv, v))
    num = luxemburg_norm(z2_noenv.f, dev)
    den = luxemburg_norm(z2_noenv.f, u) + luxemburg_norm(z2_noenv.f, v)
    assert num / den == pytest.approx(DISJOINT_DEVIATION_RATIO, rel=1e-12)


def test_quasi_linearity_constant_behaviour(z2_noenv):
    res = quasi_linearity_constant(z2_noenv, trials=4000, dim_max=64,
                                   rng_seed=31)
    again = quasi_linearity_constant(z2_noenv, trials=4000, dim_max=64,
                                     rng_seed=31)
    assert res.c_hat == again.c_hat
    assert res.c_hat >= DISJOINT_DEVIATION_RATIO  # beats the 2-point witness
    assert res.c_hat < 2.0
    assert set(res.per_dim) == {16, 64}
    assert set(res.witness) == {"dim", "x", "y", "ratio"}
    assert res.witness["ratio"] == res.c_hat
    with pytest.raises(ValueError):
        quasi_linearity_constant(z2_noenv, trials=0, dim_max=16, rng_seed=1)


def test_quasi_linearity_vanishes_when_x_equals_y(z2_noenv):
    # F(2y) = 2 F(y) by homogeneity, so the deviation at x = y is zero
    y = VecSeq.from_values([0.4, -2.0, 1.1])
    dev = kp_F(z2_noenv, y + y).sub(kp_F(z2_noenv, y)).sub(kp_F(z2_noenv, y))
    num = luxemburg_norm(z2_noenv.f, dev)
    assert num <= 1e-11 * luxemburg_norm(z2_noenv.f, y)


def counting_lux(monkeypatch):
    """Count the Luxemburg bisections the twisted module starts."""
    calls = []
    real = twisted.luxemburg_norm_batch

    def counted(m, vectors):
        calls.append(vectors.shape)
        return real(m, vectors)

    monkeypatch.setattr(twisted, "luxemburg_norm_batch", counted)
    return calls


def test_twisted_norm_batch_bisects_twice(z2_noenv, monkeypatch):
    # F twists by the ||y|| the quasi-norm already holds
    X, Y = dense_rows(sampling.rng(4), 2, 32, 16)
    calls = counting_lux(monkeypatch)
    twisted_norm_batch(z2_noenv, X, Y)
    assert len(calls) == 2


def test_quasi_linearity_draw_bisects_twice(z2_noenv, monkeypatch):
    # per chunk (one per dimension, 50 pairs each): ||x||, ||y|| and
    # ||x + y|| in one batch, then the deviation, each on rows compacted to
    # the pair's shared support (at most 16 cells)
    calls = counting_lux(monkeypatch)
    quasi_linearity_constant(z2_noenv, trials=100, dim_max=64, rng_seed=5)
    assert [(n, k <= 16) for n, k, _ in calls] == [(150, True), (50, True)] * 2


def test_quasi_triangle_draw_bisects_twice(z2_noenv, monkeypatch):
    # per chunk: p + q, p and q in one twisted_norm_batch, so the ||y||
    # solve, then the ||x - F(y)|| solve, on rows compacted to the four
    # rows' shared support (at most 32 cells)
    calls = counting_lux(monkeypatch)
    quasi_triangle_constant(z2_noenv, trials=100, dim_max=64, rng_seed=5)
    assert [(n, k <= 32) for n, k, _ in calls] == [(150, True)] * 4


# -- differential oracle: the per-call draws on dense rows --------------------

def per_call_twisted_norm(space, X, Y):
    """||y|| + ||x - F(y)|| on the dense rows, one solve after the other."""
    ny = luxemburg_norm_batch(space.f, Y[..., None])
    diff = X - space.theta.twist(Y, ny[:, None])
    return ny + luxemburg_norm_batch(space.f, diff[..., None])


def per_call_quasi_linearity(space, trials, dim_max, seed):
    def draw(X, Y):
        S = X + Y
        nx, ny, ns = (luxemburg_norm_batch(space.f, Z[..., None])
                      for Z in (X, Y, S))
        twist = space.theta.twist
        dev = (twist(S, ns[:, None]) - twist(X, nx[:, None])
               - twist(Y, ny[:, None]))
        num = luxemburg_norm_batch(space.f, dev[..., None])
        return num, nx + ny, {"x": X, "y": Y}

    return twisted._sampled_sup(trials, dim_max, seed, sampling.QUASI_LINEAR,
                                2, draw)


def per_call_quasi_triangle(space, trials, dim_max, seed):
    def draw(X1, Y1, X2, Y2):
        num = per_call_twisted_norm(space, X1 + X2, Y1 + Y2)
        den = (per_call_twisted_norm(space, X1, Y1)
               + per_call_twisted_norm(space, X2, Y2))
        return num, den, {}

    return twisted._sampled_sup(trials, dim_max, seed,
                                sampling.QUASI_TRIANGLE, 4, draw)


@pytest.fixture(scope="module", params=["z2", "kp-softclip:3,1"])
def sampled_space(request):
    return from_preset(request.param, with_envelope=False)


@pytest.mark.parametrize("seed", [5, 77])
def test_stacked_draws_are_the_per_call_draws(sampled_space, seed):
    best, per_dim, witness = per_call_quasi_linearity(sampled_space, 900,
                                                      256, seed)
    res = quasi_linearity_constant(sampled_space, 900, 256, seed)
    assert (res.c_hat, res.per_dim, res.witness) == (best, per_dim, witness)
    assert set(per_dim) == {16, 64, 256}
    best, per_dim, _ = per_call_quasi_triangle(sampled_space, 900, 256, seed)
    rep = quasi_triangle_constant(sampled_space, 900, 256, seed)
    assert (rep["Q_hat"], rep["per_dim"]) == (best, per_dim)


@pytest.mark.parametrize("width", [1, 16, 256])
def test_twisted_norm_batch_is_the_dense_form(sampled_space, width):
    X, Y = dense_rows(sampling.rng(9, width), 2, 64, width)
    X[::4] = 0.0                  # y-only rows
    Y[1::4] = 0.0                 # x-only rows
    X[2], Y[2] = 0.0, 0.0         # a zero row
    got = twisted_norm_batch(sampled_space, X, Y)
    assert np.array_equal(got, per_call_twisted_norm(sampled_space, X, Y))
    assert got[2] == 0.0


def test_twisted_norm_batch_names_non_finite_rows(z2_noenv):
    # compaction keeps every row, so the signal names the caller's rows
    X, Y = dense_rows(sampling.rng(3), 2, 6, 64)
    bad_x, bad_y = X.copy(), Y.copy()
    bad_x[4, 63] = np.nan         # raises in the ||x - F(y)|| solve
    bad_y[1, 63] = np.inf         # raises in the ||y|| solve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args, row in (((bad_x, Y), 4), ((X, bad_y), 1)):
            with pytest.raises(NumericSignal,
                               match=rf"non-finite in 1 of 6 rows, first "
                                     rf"rows \[{row}\]"):
                twisted_norm_batch(z2_noenv, *args)


def test_quasi_triangle_constant(z2_noenv):
    rep = quasi_triangle_constant(z2_noenv, trials=4000, dim_max=64,
                                  rng_seed=13)
    assert 1.0 <= rep["Q_hat"] < 2.0
    assert set(rep["per_dim"]) == {16, 64}
    again = quasi_triangle_constant(z2_noenv, trials=4000, dim_max=64,
                                    rng_seed=13)
    assert again["Q_hat"] == rep["Q_hat"]


# -- grid-certified equivalence -----------------------------------------------

@pytest.fixture(scope="module")
def z2_small(f2):
    return build_space(f2, identity_theta(), halfwidth=2.0, resolution=9,
                       label="z2-small")


def test_equivalence_certificate_report(z2_small):
    rep = equivalence_certificate(z2_small, trials=600, dim_max=32,
                                  rng_seed=101)
    assert set(rep) == {"ratio", "ratio_first_half", "ratio_min", "ratio_max",
                        "stability", "stable", "trials", "seed", "dim_max",
                        "box_halfwidth", "resolution"}
    assert 0.0 < rep["ratio_min"] <= rep["ratio_max"] < math.inf
    # coarse 9-node interpolation inflates the envelope norm a little, so the
    # floor sits below the fine-grid value of ~1.0 but must stay order one
    assert rep["ratio_min"] >= 0.5
    again = equivalence_certificate(z2_small, trials=600, dim_max=32,
                                    rng_seed=101)
    assert again == rep
    with pytest.raises(ValueError):
        equivalence_certificate(z2_small, trials=0, dim_max=16, rng_seed=1)


def equivalence_pairs(seed, n, dim):
    """Pairs 0 .. n - 1 of equivalence_certificate: rows of the
    (seed, EQUIVALENCE) stream, each two random rows of row_width(dim)."""
    u = sampling.uniforms(seed, sampling.EQUIVALENCE, 0, n,
                          2 * sampling.row_width(dim))
    return [sampling.random_rows(v, dim) for v in np.split(u, 2, axis=1)]


class FirstPartIsNotTheFirstTrials(AssertionError):
    """Raised by the strict xfail below on its first-part check alone, so
    that no other failure passes as the expected one."""


@pytest.mark.xfail(strict=True, raises=FirstPartIsNotTheFirstTrials,
                   reason=(
    "the first-part extremes are taken at the first multiple of "
    "sampling.CHUNK at or after `trials` pairs, which is the end of the "
    "sample when 2 * trials <= sampling.CHUNK, so `stability` reads 0"))
def test_equivalence_first_half_is_the_first_trials_pairs(z2_small):
    trials, dim = 200, 16
    rep = equivalence_certificate(z2_small, trials=trials, dim_max=dim,
                                  rng_seed=3)
    space = z2_small.with_box(rep["box_halfwidth"])
    X, Y = equivalence_pairs(3, 2 * trials, dim)
    r = (twisted_norm_batch(space, X, Y)
         / luxemburg_norm_batch(space.psi_map, np.stack([X, Y], axis=-1)))
    assert rep["ratio"] == [r.min(), r.max()]
    first = [float(r[:trials].min()), float(r[:trials].max())]
    if rep["ratio_first_half"] != first:
        raise FirstPartIsNotTheFirstTrials(
            f"first part {rep['ratio_first_half']}, first trials {first}")


def test_equivalence_ratio_is_the_dense_per_call_ratio(z2_small):
    # 400 pairs: the extremes of the dense per-call ratios
    trials, dim = 200, 64
    rep = equivalence_certificate(z2_small, trials=trials, dim_max=dim,
                                  rng_seed=3)
    space = z2_small.with_box(rep["box_halfwidth"])
    X, Y = equivalence_pairs(3, 2 * trials, dim)
    r = (per_call_twisted_norm(space, X, Y)
         / luxemburg_norm_batch(space.psi_map, np.stack([X, Y], axis=-1)))
    assert rep["ratio"] == [r.min(), r.max()]


def test_equivalence_needs_envelope(z2_noenv):
    with pytest.raises(ValueError):
        equivalence_certificate(z2_noenv, trials=10, dim_max=16, rng_seed=1)


def test_equivalence_box_doubles_when_too_small(f2):
    tight = build_space(f2, identity_theta(), halfwidth=0.25, resolution=9)
    rep = equivalence_certificate(tight, trials=300, dim_max=16, rng_seed=7)
    assert rep["box_halfwidth"] > 0.25
    assert rep["ratio_min"] > 0.0


def test_equivalence_builds_no_envelope_after_its_last_sample(monkeypatch):
    # a box of 1e-6 overflows on all 7 attempts: 6 doublings, 6 envelopes
    sp = build_space(power(2.0), identity_theta(), halfwidth=1e-6,
                     resolution=9)
    boxes = []
    real = twisted.convex_envelope

    def counted(m, halfwidth, resolution):
        boxes.append(halfwidth)
        return real(m, halfwidth, resolution)

    monkeypatch.setattr(twisted, "convex_envelope", counted)
    with pytest.raises(NumericSignal, match="after 6 doublings"):
        equivalence_certificate(sp, trials=10, dim_max=16, rng_seed=1)
    assert boxes == [1e-6 * 2.0 ** k for k in range(1, 7)]


# -- presets ------------------------------------------------------------------

def test_from_preset_names():
    sp = from_preset("zp:3", with_envelope=False)
    assert sp.f.p == 3.0
    sc = from_preset("kp-softclip:2,0.5", with_envelope=False)
    assert sc.theta.a == 0.5
    p, theta, label = parse_preset(" kp-softclip:3,0.5 ")
    assert (p, theta.a, label) == (3.0, 0.5, "kp-softclip:3,0.5")
    for bad in ("zp:x", "frob", "kp-softclip:2", "kp-softclip:a,b",
                "kp-softclip:2,1,3"):
        with pytest.raises(ValueError):
            from_preset(bad, with_envelope=False)
        with pytest.raises(ValueError):
            parse_preset(bad)


def test_space_accessors(z2_noenv):
    with pytest.raises(ValueError):
        z2_noenv.psi_map
    with pytest.raises(ValueError):
        z2_noenv.box_halfwidth
