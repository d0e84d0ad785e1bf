import math

import numpy as np
import pytest

from twistnorm import (PairSeq, VecSeq, build_space, equivalence_certificate,
                       from_preset, identity_theta, kp_F, luxemburg_norm,
                       luxemburg_norm_batch, modular, parse_preset,
                       quasi_linearity_constant, quasi_triangle_constant,
                       s_functional, twisted_norm, twisted_norm_batch)
from twistnorm import sampling, twisted

# frozen expected values
DISJOINT_DEVIATION_RATIO = 0.2450645358672141   # sqrt(2)*log(sqrt(2)) / 2


def pair(entries):
    """entries: list of (index, x, y)."""
    idx = tuple(i for i, _, _ in entries)
    return PairSeq(idx, np.array([x for _, x, _ in entries], dtype=float),
                   np.array([y for _, _, y in entries], dtype=float))


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
    assert not p.is_zero()
    assert pair([(4, 0.0, 0.0)]).is_zero()


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
    x = VecSeq.from_values([1.0, 2.0])
    y = VecSeq.from_entries(1, [(2, [5.0])])
    m = PairSeq.from_xy(x, y)
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


def test_F_skips_zero_coordinates(z2_noenv):
    y = VecSeq.from_entries(1, [(1, [1.0]), (3, [0.0]), (4, [1.0])])
    out = kp_F(z2_noenv, y)
    assert out.support == (1, 4)


# -- the quasi-norm -----------------------------------------------------------

def test_twisted_norm_anchors(z2_noenv):
    assert twisted_norm(z2_noenv, pair([(1, 1.0, 0.0)])) == 1.0
    assert twisted_norm(z2_noenv, pair([(1, 0.0, 1.0)])) == 1.0
    assert twisted_norm(z2_noenv, pair([(1, 0.0, 0.0)])) == 0.0


def test_twisted_norm_on_x_only_is_luxemburg(z2_noenv):
    vals = [3.0, -4.0]
    p = PairSeq.from_xy(VecSeq.from_values(vals),
                        VecSeq.from_entries(1, []))
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


# -- the scale functional -----------------------------------------------------

def test_s_functional_rejects_nonpositive_scale(z2_noenv):
    p = pair([(1, 1.0, 1.0)])
    with pytest.raises(ValueError):
        s_functional(z2_noenv, p, 0.0)
    with pytest.raises(ValueError):
        s_functional(z2_noenv, p, -1.0)


def test_s_functional_y_zero_reduces_to_modular(z2_noenv):
    p = pair([(1, 0.7, 0.0), (2, -0.3, 0.0)])
    want = 0.7 ** 2 + 0.3 ** 2
    assert s_functional(z2_noenv, p, 1.0) == pytest.approx(want, rel=1e-15)
    assert s_functional(z2_noenv, p, 99.0) == pytest.approx(want, rel=1e-15)


def test_s_functional_at_norm_scale_matches_modulars(z2_noenv):
    p = pair([(1, 0.5, 0.3), (2, -0.2, 0.8), (3, 0.1, -0.4)])
    k = luxemburg_norm(z2_noenv.f, p.y_seq)
    diff = p.x_seq.sub(kp_F(z2_noenv, p.y_seq))
    want = (modular(z2_noenv.f, p.y_seq, 1.0)
            + modular(z2_noenv.f, diff, 1.0))
    assert s_functional(z2_noenv, p, k) == pytest.approx(want, rel=1e-12)


def test_s_functional_small_on_unit_ball(z2_noenv):
    # scaled to quasi-norm one, the functional at k = ||y|| is at most one
    rng = np.random.default_rng(17)
    for _ in range(25):
        xv = rng.standard_normal(4) * 3.0
        yv = rng.standard_normal(4) * 3.0
        p = PairSeq(tuple(range(1, 5)), xv, yv)
        n = twisted_norm(z2_noenv, p)
        u = p.scaled(1.0 / n)
        k = luxemburg_norm(z2_noenv.f, u.y_seq)
        if k == 0.0:
            continue
        assert s_functional(z2_noenv, u, k) <= 1.0 + 1e-9


def test_s_functional_continuous_in_scale(z2_noenv):
    p = pair([(1, 0.5, 0.3), (2, -0.2, 0.8)])
    a = s_functional(z2_noenv, p, 1.3)
    b = s_functional(z2_noenv, p, 1.3 * (1.0 + 1e-9))
    assert b == pytest.approx(a, rel=1e-7)


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
    rng = sampling.rng(4)
    X, Y = (sampling.random_rows(rng, 32, 16) for _ in range(2))
    calls = counting_lux(monkeypatch)
    twisted_norm_batch(z2_noenv, X, Y)
    assert len(calls) == 2


def test_quasi_linearity_draw_bisects_four_times(z2_noenv, monkeypatch):
    # ||x||, ||y||, ||x + y|| once each, then the deviation
    calls = counting_lux(monkeypatch)
    quasi_linearity_constant(z2_noenv, trials=100, dim_max=16, rng_seed=5)
    assert len(calls) == 4


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


@pytest.mark.xfail(strict=True, reason=(
    "the first-half extremes are taken at the first chunk boundary at or "
    "after `trials` pairs, which is the end of the sample when "
    "2 * trials <= sampling.CHUNK, so `stability` reads 0"))
def test_equivalence_first_half_is_the_first_trials_pairs(z2_small):
    trials, dim = 200, 16
    rep = equivalence_certificate(z2_small, trials=trials, dim_max=dim,
                                  rng_seed=3)
    space = z2_small.with_box(rep["box_halfwidth"])
    (rng, n), = sampling.chunks(3, 2 * trials)     # 400 pairs, one chunk
    X = sampling.random_rows(rng, n, dim)
    Y = sampling.random_rows(rng, n, dim)
    r = (twisted_norm_batch(space, X, Y)
         / luxemburg_norm_batch(space.psi_map, np.stack([X, Y], axis=-1)))
    assert rep["ratio"] == [r.min(), r.max()]
    assert rep["ratio_first_half"] == [r[:trials].min(), r[:trials].max()]


def test_equivalence_needs_envelope(z2_noenv):
    with pytest.raises(ValueError):
        equivalence_certificate(z2_noenv, trials=10, dim_max=16, rng_seed=1)


def test_equivalence_box_doubles_when_too_small(f2):
    tight = build_space(f2, identity_theta(), halfwidth=0.25, resolution=9)
    rep = equivalence_certificate(tight, trials=300, dim_max=16, rng_seed=7)
    assert rep["box_halfwidth"] > 0.25
    assert rep["ratio_min"] > 0.0


# -- presets ------------------------------------------------------------------

def test_from_preset_names():
    sp = from_preset("zp:3", with_envelope=False)
    assert sp.f.p == 3.0
    sc = from_preset("kp-softclip:2,0.5", with_envelope=False)
    assert sc.theta.K == 1.0
    p, theta, label = parse_preset(" kp-softclip:3,0.5 ")
    assert (p, theta.K, label) == (3.0, 1.0, "kp-softclip:3,0.5")
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
