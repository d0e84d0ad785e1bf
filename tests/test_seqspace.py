import functools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistnorm import (BracketError, NumericSignal, OrliczFn, VecSeq,
                       YoungMap, build_space, certify, convex_envelope,
                       extend, from_preset, identity_theta, kalton_peck_map,
                       luxemburg_norm, luxemburg_norm_batch, modular, power,
                       power_log, radial_power)
from twistnorm.seqspace import (MAX_POW, REL_TOL, _bracket_bisect,
                                compact_rows)

HSET = settings(max_examples=40, deadline=None)


def seq1(*vals):
    return VecSeq.from_values(list(vals))


# -- container ----------------------------------------------------------------

def test_vecseq_validation():
    with pytest.raises(ValueError):
        VecSeq.from_entries(1, [(1, [1.0]), (1, [2.0])])    # duplicate index
    with pytest.raises(ValueError):
        VecSeq.from_entries(1, [(0, [1.0])])                # index must be >= 1
    with pytest.raises(ValueError):
        VecSeq.from_entries(1, [(1, [1.0, 2.0])])           # wrong width
    with pytest.raises(ValueError):
        VecSeq.from_entries(1, [(1, [math.nan])])           # non-finite
    with pytest.raises(ValueError):
        VecSeq(dim=0, indices=(), vectors=np.zeros((0, 0)))


def test_vecseq_drops_zero_rows():
    s = VecSeq.from_entries(1, [(3, [0.0]), (5, [2.0]), (9, [0.0])])
    assert s.n_terms == 1
    assert s.indices == (5,)
    assert not s.is_zero()
    z = VecSeq.from_entries(2, [(1, [0.0, 0.0])])
    assert z.is_zero() and z.n_terms == 0


def test_vecseq_json_round_trip():
    s = VecSeq.from_entries(2, [(2, [1.5, -0.5]), (7, [0.0, 3.0])])
    back = VecSeq.from_json(s.to_json())
    assert back.dim == 2
    assert back.indices == s.indices
    assert np.array_equal(back.vectors, s.vectors)
    with pytest.raises(ValueError):
        VecSeq.from_json('{"entries": []}')                 # missing dim
    with pytest.raises(ValueError):
        VecSeq.from_json('{"dim": 2, "entries": [[1, [1.0]]]}')


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "1", None])
def test_vecseq_rejects_indices_that_are_not_integers(bad):
    # int() would truncate 1.5 to 1 and read True as 1
    with pytest.raises(ValueError, match=r"index must be an integer, got "):
        VecSeq(1, (bad,), [[1.0]])
    with pytest.raises(ValueError, match=r"entry index must be an integer"):
        VecSeq.from_entries(1, [(bad, [1.0])])
    text = json.dumps({"dim": 1, "entries": [[bad, [2.0]]]})
    with pytest.raises(ValueError, match=re.escape(
            f"index of entry {[bad, [2.0]]!r} must be an integer")):
        VecSeq.from_json(text)


@pytest.mark.parametrize("bad", [1.9, 1.0, False, True])
def test_vecseq_rejects_a_dimension_that_is_not_an_integer(bad):
    with pytest.raises(ValueError, match=r"^dim must be an integer, got "):
        VecSeq(bad, (1,), [[1.0]])
    with pytest.raises(ValueError, match=r"^dim must be an integer, got "):
        VecSeq.from_json(json.dumps({"dim": bad, "entries": [[1, [2.0]]]}))


def test_vecseq_keeps_integer_types():
    s = VecSeq(np.int64(2), (np.int32(3), np.uint8(7)), [[1.0, 2.0]] * 2)
    assert s.dim == 2 and s.indices == (3, 7)
    assert all(type(i) is int for i in (s.dim, *s.indices))
    back = VecSeq.from_json(s.to_json())
    assert back.indices == (3, 7)


def test_vecseq_arithmetic_merges_supports():
    a = VecSeq.from_entries(1, [(1, [1.0]), (3, [2.0])])
    b = VecSeq.from_entries(1, [(3, [-2.0]), (4, [5.0])])
    s = a + b
    assert s.indices == (1, 4)       # index-3 terms cancel and are dropped
    assert s.scaled(2.0).vectors[:, 0].tolist() == [2.0, 10.0]
    d = a - a
    assert d.is_zero()
    assert a.scaled(-1.0).vectors[0, 0] == -1.0
    assert (0.5 * a).vectors[0, 0] == 0.5
    wide = VecSeq.from_entries(2, [(1, [1.0, 1.0])])
    with pytest.raises(ValueError):
        a.add(wide)


def test_vecseq_vectors_read_only():
    s = seq1(1.0, 2.0)
    with pytest.raises(ValueError):
        s.vectors[0, 0] = 9.0


# -- modular ------------------------------------------------------------------

def test_modular_scalar_and_map_agree(f2):
    s = seq1(0.5, -1.5, 2.0)
    direct = float(np.sum(f2.value(np.array([0.5, -1.5, 2.0]))))
    assert modular(f2, s, 1.0) == pytest.approx(direct, rel=1e-15)
    as_map = YoungMap(dim=1, fn=lambda p: p[..., 0] ** 2)
    assert modular(as_map, s, 1.0) == pytest.approx(direct, rel=1e-15)
    assert modular(f2, s, 2.0) == pytest.approx(direct / 4.0, rel=1e-15)


def test_modular_validation(f2):
    s = seq1(1.0)
    with pytest.raises(ValueError):
        modular(f2, s, 0.0)
    with pytest.raises(ValueError):
        modular(f2, s, -1.0)
    wide = VecSeq.from_entries(2, [(1, [1.0, 1.0])])
    with pytest.raises(ValueError):
        modular(f2, wide, 1.0)           # dim-1 function, dim-2 rows
    with pytest.raises(ValueError):
        modular(radial_power(2, 2.0), s, 1.0)


def test_monotone_gate():
    bumpy = YoungMap(dim=1, fn=lambda p: np.abs(np.sin(p[..., 0])),
                     radially_monotone=False)
    with pytest.raises(ValueError):
        luxemburg_norm(bumpy, seq1(1.0))


# -- the norm -----------------------------------------------------------------

def test_luxemburg_matches_lp(f2):
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(12) * 3.0
    s = seq1(*vals)
    assert luxemburg_norm(f2, s) == pytest.approx(
        float(np.linalg.norm(vals, 2)), rel=1e-11)
    f3 = certify(power(3.0), 3.0)
    assert luxemburg_norm(f3, s) == pytest.approx(
        float(np.linalg.norm(vals, 3)), rel=1e-11)


def test_luxemburg_exact_unit_vector(f2):
    # a single entry with value 1 has modular exactly 1 at rho = 1
    assert luxemburg_norm(f2, seq1(1.0)) == 1.0


def test_luxemburg_quartic_anchor():
    q = radial_power(1, 4.0)
    s = seq1(1.0, 1.0)
    assert luxemburg_norm(q, s) == pytest.approx(2.0 ** 0.25, rel=1e-12)


def test_luxemburg_power_log_unit_modular():
    f = certify(power_log(2.0), 2.0)
    s = seq1(0.9, 0.4, 0.2)
    rho = luxemburg_norm(f, s)
    assert modular(f, s, rho) == pytest.approx(1.0, rel=1e-10)


def test_luxemburg_zero_and_scaling(f2):
    assert luxemburg_norm(f2, VecSeq.from_values([0.0])) == 0.0
    s = seq1(1.0, -2.0, 0.5)
    n = luxemburg_norm(f2, s)
    assert luxemburg_norm(f2, s.scaled(3.0)) == pytest.approx(3.0 * n, rel=1e-12)


@pytest.mark.parametrize("make", [
    lambda: power(2.0),
    lambda: radial_power(2, 2.0),
    lambda: convex_envelope(kalton_peck_map(power(2.0), identity_theta()),
                            2.0, 9).envelope_map(),
], ids=["power", "radial", "envelope"])
def test_zero_sequence_takes_the_general_path(make):
    # the batch and evaluate paths give 0 on empty arrays, without a warning
    m = make()
    zero = VecSeq.from_entries(m.dim, [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert modular(m, zero) == 0.0
        assert modular(m, zero, 1e-300) == 0.0
        assert luxemburg_norm(m, zero) == 0.0


def test_batch_matches_singles_and_ignores_padding(f2):
    rng = np.random.default_rng(23)
    rows = rng.standard_normal((5, 7, 1)) * 2.0
    rows[1, 4:] = 0.0                         # padded batch entry
    out = luxemburg_norm_batch(f2, rows)
    for b in range(5):
        live = rows[b, np.any(rows[b] != 0.0, axis=-1), 0]
        if live.size:
            assert out[b] == pytest.approx(
                luxemburg_norm(f2, VecSeq.from_values(live)), rel=1e-12)
    rows = rows.copy()
    rows[2] = 0.0
    out2 = luxemburg_norm_batch(f2, rows)
    assert out2[2] == 0.0


def test_bracket_error_when_modular_saturates():
    flat = YoungMap(dim=1, fn=lambda p: np.minimum(p[..., 0] ** 2, 0.5),
                    radially_monotone=True)
    with pytest.raises(BracketError):
        luxemburg_norm(flat, seq1(1.0))


# -- extreme scales -----------------------------------------------------------

def test_luxemburg_norm_beyond_float64_raises():
    # ||(1.5e308, 1.5e308)||_2 = 2.1e308 has no float64; the rows are named
    huge = [[1.5e308], [1.5e308]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericSignal, match=r"overflows .* rows \[0\]"):
            luxemburg_norm(power(2), seq1(1.5e308, 1.5e308))
        batch = np.array([[[1.0], [0.0]], huge, [[0.0], [0.0]], huge])
        with pytest.raises(NumericSignal,
                           match=r"overflows float64 in 2 of 4 rows, first "
                                 r"rows \[1, 3\]"):
            luxemburg_norm_batch(power(2), batch)
        batch[2, 0, 0] = np.inf
        with pytest.raises(NumericSignal,
                           match=r"non-finite in 1 of 4 rows, first "
                                 r"rows \[2\]"):
            luxemburg_norm_batch(power(2), batch)


def lp_closed_form(vals, p):
    """(sum |v|**p)**(1/p), scaled by the largest |v| so nothing under/overflows."""
    a = np.abs(np.asarray(vals, dtype=float))
    top = a.max()
    return float(top * np.sum((a / top) ** p) ** (1.0 / p))


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("vals", [[1e-300], [1e-160], [3e-160, 1e-160],
                                  [5e-324], [1e160], [1e300]])
def test_luxemburg_extreme_scales_match_lp(p, vals):
    got = luxemburg_norm(power(p), seq1(*vals))
    assert got == pytest.approx(lp_closed_form(vals, p), rel=1e-11)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_luxemburg_homogeneous_across_scales(p):
    f = power(p)
    s = seq1(1.0, -2.0, 0.5, 7.25)
    n = luxemburg_norm(f, s)
    for k in (-1000, -500, -1, 1, 500, 1000):
        # power-of-two scaling is exact, so the norm scales exactly
        assert luxemburg_norm(f, s.scaled(2.0 ** k)) == n * 2.0 ** k


def test_bracket_bisect_midpoint_is_scale_safe():
    # sqrt(lo * hi) would underflow to 0 near 1e-200; lo * sqrt(hi / lo) does not
    def modular_fn(rho, rows):
        return (1e-200 / rho) ** 2

    root = _bracket_bisect(modular_fn, np.array([3e-200]))[0]
    assert abs(root - 1e-200) <= REL_TOL * 1e-200


def test_bracket_bisect_underflowing_bracket_raises():
    # the root 0.7**0.5 * 3e-322 is subnormal: its neighbours are 2% apart, so
    # the bracket cannot close to 1e-12 and the step cap must end the search
    def modular_fn(rho, rows):
        return 0.7 * (3e-322 / rho) ** 2

    with pytest.raises(BracketError, match="rows, e.g. lo="):
        _bracket_bisect(modular_fn, np.array([3e-322]))


# -- packing: differential oracle and work count -------------------------------

def dense_problem(m, vectors):
    """The modular of every cell of the live rows, summed in cell order,
    unscaled, and a start."""
    vectors = np.asarray(vectors, dtype=float)
    row_sup = (np.linalg.norm(vectors, axis=-1).max(axis=-1)
               if vectors.shape[1] else np.zeros(vectors.shape[0]))
    live = row_sup > 0.0
    work = vectors[live]

    def modular_fn(rho, rows):
        vals = m.evaluate(work[rows] / rho[:, None, None])
        return np.add.accumulate(vals, axis=-1)[:, -1]

    return modular_fn, row_sup[live], live


def dense_luxemburg_norm_batch(m, vectors):
    """Reference: every cell of the batch, unscaled, on every step."""
    modular_fn, start, live = dense_problem(m, vectors)
    out = np.zeros(live.size)
    if live.any():
        out[live] = _bracket_bisect(modular_fn, start)
    return out


def bisect_reference(modular_fn, start):
    """Reference: plain log bisection from the same bracket search.

    Returns the roots, the number of scales start * 2**k the bracket search
    visits and the number of bisection steps, per row.
    """
    hi = np.array(start, dtype=float)
    first = modular_fn(hi, np.arange(hi.size))
    exact = first == 1.0
    rows = np.flatnonzero(first > 1.0)
    for doublings in range(MAX_POW + 1):
        if rows.size == 0:
            break
        if doublings == MAX_POW:
            raise BracketError("no scale with modular <= 1")
        hi[rows] *= 2.0
        rows = rows[modular_fn(hi[rows], rows) > 1.0]
    lo = hi.copy()
    rows = np.flatnonzero(~exact)
    for halvings in range(MAX_POW + 1):
        rows = rows[modular_fn(lo[rows], rows) <= 1.0]
        if rows.size == 0:
            break
        if halvings == MAX_POW:
            raise BracketError("no scale with modular > 1")
        lo[rows] /= 2.0
    scales = 1 + np.rint(np.maximum(np.log2(hi / start), np.log2(start / lo)))
    steps = np.zeros(hi.size, dtype=int)
    rows = np.flatnonzero(~exact)
    while True:
        rows = rows[hi[rows] / lo[rows] - 1.0 > REL_TOL]
        if rows.size == 0:
            return np.sqrt(lo * hi), scales, steps
        assert steps.max() < 54, "the bisection's own step cap"
        steps[rows] += 1
        mid = np.sqrt(lo[rows] * hi[rows])
        val = modular_fn(mid, rows)
        hit = val == 1.0
        lo[rows[hit]] = hi[rows[hit]] = mid[hit]
        lo[rows[~hit & (val > 1.0)]] = mid[~hit & (val > 1.0)]
        hi[rows[~hit & ~(val > 1.0)]] = mid[~hit & ~(val > 1.0)]


def assert_in_bracket(modular_fn, got):
    """got lies in a bracket of relative width REL_TOL around the root."""
    rows = np.arange(got.size)
    below = modular_fn(got / (1.0 + REL_TOL), rows)
    assert np.all((below > 1.0) | (modular_fn(got, rows) == 1.0))
    assert np.all(modular_fn(got * (1.0 + REL_TOL), rows) <= 1.0)


def step_like(t):
    """Strictly increasing, with a jump of 1/8 wherever 8 t**2 is an integer."""
    t = np.abs(t[..., 0])
    return (np.floor(8.0 * t * t) + t * t) / 8.0


def kinked(t):
    """Convex and piecewise linear, with kinks at 1 and 2."""
    t = np.abs(t[..., 0])
    return np.maximum(np.maximum(t, 3.0 * t - 2.0), 10.0 * t - 16.0)


ORACLE_MAPS = {
    "power(1.5)": lambda: power(1.5),
    "power(2)": lambda: power(2.0),
    "power(3)": lambda: power(3.0),
    "power(20)": lambda: power(20.0),
    "power_log(2)": lambda: power_log(2.0),
    "extend(power_log(1.5), 2)": lambda: extend(power_log(1.5), 2.0),
    "psi-z2": lambda: from_preset("z2", resolution=17).psi_map,
    "psi-z2-41": lambda: from_preset("z2", resolution=41).psi_map,
    "psi-kp-softclip:2,1": lambda: from_preset("kp-softclip:2,1",
                                               resolution=17).psi_map,
    "radial_power(2, 2)": lambda: radial_power(2, 2.0),
    "kinked": lambda: YoungMap(dim=1, fn=kinked, radially_monotone=True),
    "step-like": lambda: YoungMap(dim=1, fn=step_like, radially_monotone=True),
}


@pytest.mark.parametrize("name", list(ORACLE_MAPS))
def test_root_finder_matches_bisection(name):
    m = ORACLE_MAPS[name]()
    batch = ragged_batch(np.random.default_rng(61), 200, 16, m.dim)
    modular_fn, start, _ = dense_problem(m, batch)
    got = _bracket_bisect(modular_fn, start)
    want, _, _ = bisect_reference(modular_fn, start)
    assert np.all(np.abs(got - want) <= REL_TOL * want)
    assert_in_bracket(modular_fn, got)


def test_saturating_modular_raises_in_both_finders():
    flat = YoungMap(dim=1, fn=lambda p: np.minimum(p[..., 0] ** 2, 0.5),
                    radially_monotone=True)
    modular_fn, start, _ = dense_problem(flat, np.ones((3, 1, 1)))
    with pytest.raises(BracketError, match="modular > 1"):
        bisect_reference(modular_fn, start)
    with pytest.raises(BracketError, match="modular > 1 within 2\\*\\*-64"):
        _bracket_bisect(modular_fn, start)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 20.0])
def test_power_rows_solve_in_at_most_8_evaluations(p):
    # log modular is affine in log rho, so false position lands on the root
    calls = []

    def counted(pts):
        calls.append(pts.shape[0])
        return np.abs(pts[..., 0]) ** p

    m = YoungMap(dim=1, fn=counted, radially_monotone=True)
    batch = ragged_batch(np.random.default_rng(53), 64, 16, 1)
    out = luxemburg_norm_batch(m, batch)
    # each call evaluates every row still open once
    assert 0 < len(calls) <= 8
    want = [lp_closed_form(row, p) if row.any() else 0.0 for row in batch]
    assert np.allclose(out, want, rtol=1e-11, atol=0.0)


def test_step_like_modular_costs_at_most_twice_the_bisection():
    m = YoungMap(dim=1, fn=step_like, radially_monotone=True)
    batch = ragged_batch(np.random.default_rng(59), 200, 16, 1)
    modular_fn, start, _ = dense_problem(m, batch)
    count = np.zeros(start.size, dtype=int)

    def counted(rho, rows):
        count[rows] += 1
        return modular_fn(rho, rows)

    _bracket_bisect(counted, start)
    _, scales, steps = bisect_reference(modular_fn, start)
    assert np.all(count <= scales + 2 * steps)


def test_a_stalled_false_position_keeps_the_bisection_budget():
    # the modular jumps from e**700 to just below 1 at the root, so each
    # false position lands next to hi and moves it by the least inset, and
    # the halved weight of lo frees it only after about 60 halvings; the
    # bisection budget must then bisect, and close at exactly twice the
    # bisection steps
    root = np.array([1.3, 1.7, 1.9])

    def modular_fn(rho, rows):
        return np.where(rho < root[rows], math.exp(700.0),
                        np.nextafter(1.0, 0.0))

    count = np.zeros(root.size, dtype=int)

    def counted(rho, rows):
        count[rows] += 1
        return modular_fn(rho, rows)

    start = np.ones(root.size)
    got = _bracket_bisect(counted, start)
    _, scales, steps = bisect_reference(modular_fn, start)
    assert np.all(count == scales + 2 * steps)
    assert np.all(np.abs(got - root) <= REL_TOL * root)


@pytest.mark.parametrize("name, most", [("psi-z2-41", 9.0),
                                        ("power_log(2)", 8.0)])
def test_illinois_rows_take_few_modular_evaluations(name, most):
    # false position with a midpoint after every step that did not halve
    # the width took 12.3 row evaluations per row on these Psi rows and
    # 12.2 on these power_log rows
    m = oracle_map(name)
    rows = [0]

    def counted(pts):
        rows[0] += pts.shape[0]
        return m.evaluate(pts)

    batch = ragged_batch(np.random.default_rng(67), 1000, 64, m.dim)
    luxemburg_norm_batch(YoungMap(dim=m.dim, fn=counted,
                                  radially_monotone=True), batch)
    assert rows[0] / np.any(batch != 0.0, axis=(1, 2)).sum() <= most


def ragged_batch(rng, n, width, dim):
    """Rows of 0..8 nonzero cells anywhere, plus a zero row and a last-cell row."""
    out = np.zeros((n, width, dim))
    for b in range(n - 2):
        k = int(rng.integers(0, min(8, width) + 1))
        cols = rng.choice(width, size=k, replace=False)
        out[b, cols] = rng.standard_normal((k, dim)) * 10.0 ** rng.uniform(
            -3, 2, (k, 1))
    out[n - 1, width - 1] = 2.5                      # lone nonzero, last cell
    return out                                        # row n - 2 is all zero


def assert_matches_dense(m, batch):
    # both sum each row's modular in cell order, and a zero cell adds +0.0,
    # so every row sees the same modular values and the same iterates
    packed = luxemburg_norm_batch(m, batch)
    assert np.array_equal(packed, dense_luxemburg_norm_batch(m, batch))
    return packed


def degreeless_power(p):
    """|t|**p without a degree, so its norm takes the packed search."""
    return YoungMap(dim=1, fn=lambda t: np.abs(t[..., 0]) ** p,
                    radially_monotone=True)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("width", [1, 16, 256])
def test_packed_batch_matches_dense(p, width):
    rng = np.random.default_rng(int(width * 10 + p * 2))
    batch = ragged_batch(rng, 40, width, 1)
    out = assert_matches_dense(degreeless_power(p), batch)
    assert out[-2] == 0.0
    assert out[-1] == 2.5


# -- the closed form of a map with a degree: differential oracle -------------

CLOSED_FORM_PS = [1.05, 1.5, 2.0, 3.0, 20.0, 35.0]


@pytest.mark.parametrize("p", CLOSED_FORM_PS)
@pytest.mark.parametrize("width", [1, 16, 256])
@pytest.mark.parametrize("k", [-900, 0, 900])
def test_power_closed_form_matches_the_search(p, width, k):
    batch = ragged_batch(np.random.default_rng(int(width + 7 * p)), 60,
                         width, 1) * 2.0 ** k
    got = luxemburg_norm_batch(power(p), batch)
    want = luxemburg_norm_batch(degreeless_power(p), batch)
    assert np.all(np.abs(got - want) <= REL_TOL * want)
    with np.errstate(over="ignore"):     # the unused start squares 2**900
        modular_fn, _, live = dense_problem(power(p), batch)
    assert_in_bracket(modular_fn, got[live])


@pytest.mark.parametrize("p", CLOSED_FORM_PS)
def test_power_one_cell_rows_are_exact(p):
    cells = np.array([-2.5, 1.0, 3e-300, -5e-324, 1e300, 7.3, -0.1])
    got = luxemburg_norm_batch(power(p), cells[:, None, None])
    assert np.array_equal(got, np.abs(cells))


@pytest.mark.parametrize("p", [1.05, 2.0, 35.0])
def test_power_batch_takes_two_evaluations(p, monkeypatch):
    # one at the start, one stacked at both ends of the bracket
    calls = []
    evaluate = OrliczFn.evaluate

    def counted(self, rows):
        calls.append(rows.shape[0])
        return evaluate(self, rows)

    monkeypatch.setattr(OrliczFn, "evaluate", counted)
    batch = ragged_batch(np.random.default_rng(67), 64, 16, 1)
    luxemburg_norm_batch(power(p), batch)
    assert len(calls) == 2 and calls[1] == 2 * calls[0] > 0


class WrongDegree:
    """|t|**3 that declares the degree 2."""

    dim = 1
    radially_monotone = True
    degree = 2.0

    def evaluate(self, rows):
        return np.abs(rows[..., 0]) ** 3


class FirstCoordinateSquared:
    """x1**2 on R^2: of degree 2, and 0 on the rows (0, y)."""

    dim = 2
    radially_monotone = True
    degree = 2.0

    def evaluate(self, rows):
        return rows[..., 0] ** 2


def test_a_degree_map_that_vanishes_on_a_row_raises_as_the_search_does():
    # modular(start) = 0 gives the root 0, which is no scale to check
    batch = np.array([[[3.0, 4.0], [0.0, 0.0]], [[0.0, 2.0], [0.0, 0.0]]])
    assert luxemburg_norm_batch(FirstCoordinateSquared(), batch[:1]) == (
        pytest.approx(3.0, rel=REL_TOL))
    with pytest.raises(BracketError, match="modular > 1 within 2\\*\\*-64"):
        luxemburg_norm_batch(FirstCoordinateSquared(), batch)


def test_a_wrong_degree_falls_back_to_the_search():
    batch = ragged_batch(np.random.default_rng(71), 80, 16, 1)
    got = luxemburg_norm_batch(WrongDegree(), batch)
    want = luxemburg_norm_batch(degreeless_power(3.0), batch)
    assert np.all(np.abs(got - want) <= REL_TOL * want)
    modular_fn, _, live = dense_problem(degreeless_power(3.0), batch)
    assert_in_bracket(modular_fn, got[live])


def test_packed_psi_norm_matches_dense(f2):
    psi = build_space(f2, identity_theta(), halfwidth=2.0,
                      resolution=9).psi_map
    rng = np.random.default_rng(31)
    for width in (1, 16, 64):
        pairs = ragged_batch(rng, 30, width, 2)
        # turn some cells into (x, 0) and (0, y) cells
        pairs[::3, :, 0] = 0.0
        pairs[1::3, :, 1] = 0.0
        assert_matches_dense(psi, pairs)


@pytest.mark.parametrize("m, dim", [(power(2.0), 2),
                                     (radial_power(2, 2.0), 1)],
                         ids=["scalar-on-dim-2", "radial-2-on-dim-1"])
def test_batch_dimension_must_match_the_map(m, dim):
    with pytest.raises(ValueError, match="matching the map"):
        luxemburg_norm_batch(m, np.ones((3, 4, dim)))


def test_packing_evaluates_only_nonzero_cells():
    widths = []

    def counted(pts):
        widths.append(pts.shape[-2])
        return pts[..., 0] ** 2

    m = YoungMap(dim=1, fn=counted, radially_monotone=True)
    rng = np.random.default_rng(47)
    batch = ragged_batch(rng, 64, 256, 1)
    out = luxemburg_norm_batch(m, batch)
    assert widths and max(widths) <= 8
    want = np.sqrt(np.sum(batch[..., 0] ** 2, axis=-1))
    assert np.allclose(out, want, rtol=1e-11, atol=0.0)


@functools.cache
def oracle_map(name):
    return ORACLE_MAPS[name]()


def padded_rows(m, rows):
    """Dense rows (k nonzero cells, pad zero cells, seed) in random cell
    order, each of its own width k + pad."""
    out = []
    for k, pad, seed in rows:
        rng = np.random.default_rng(seed)
        row = np.zeros((k + pad, m.dim))
        mags = 10.0 ** rng.uniform(-3.0, 2.0, (k, m.dim))
        row[rng.choice(k + pad, size=k, replace=False)] = mags * np.where(
            rng.random((k, m.dim)) < 0.5, -1.0, 1.0)
        if m.dim > 1:
            row[rng.random(k + pad) < 0.2, 0] = 0.0    # some (0, y) cells
        out.append(row)
    return out


@pytest.mark.parametrize("name", ["power(2)", "power_log(2)", "psi-z2"])
@HSET
@given(st.lists(st.tuples(st.integers(1, 40), st.integers(0, 24),
                          st.integers(0, 2**32 - 1)), min_size=1, max_size=8))
def test_every_batch_row_is_its_one_row_solve(name, rows):
    # the modular sums each row in cell order, so neither the other rows
    # nor the padding that the widest of them forces can move a norm
    m = oracle_map(name)
    dense = padded_rows(m, rows)
    batch = np.zeros((len(dense), max(r.shape[0] for r in dense), m.dim))
    for b, row in enumerate(dense):
        batch[b, :row.shape[0]] = row
    alone = [luxemburg_norm_batch(m, row[None])[0] for row in dense]
    assert np.array_equal(luxemburg_norm_batch(m, batch), alone)


def test_compact_rows_keeps_the_shared_support_in_order():
    X = np.array([[0, 1, 0, 2, 0], [0] * 5, [3, 0, 0, 0, 4]], dtype=float)
    Y = np.array([[0, 0, 5, -1, 0], [0] * 5, [0, 0, 0, 0, np.nan]])
    Xc, Yc = compact_rows(X, Y)
    assert np.array_equal(Xc, [[1, 0, 2], [0] * 3, [3, 4, 0]])
    assert np.array_equal(Yc, [[0, 5, -1], [0] * 3, [0, np.nan, 0]],
                          equal_nan=True)
    cells, = compact_rows(np.array([[[0.0, 0.0], [0.0, 7.0], [1.0, 0.0]]]))
    assert np.array_equal(cells, [[[0.0, 7.0], [1.0, 0.0]]])
    for empty in (np.zeros((2, 4)), np.zeros((2, 0)), np.zeros((2, 0, 2))):
        assert compact_rows(empty)[0].shape == (2, 0) + empty.shape[2:]


# -- structural properties, randomized ----------------------------------------

@HSET
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
       st.floats(0.01, 100.0))
def test_homogeneity(f2, vals, c):
    s = seq1(*vals)
    if s.is_zero():
        return
    assert luxemburg_norm(f2, s.scaled(c)) == pytest.approx(
        c * luxemburg_norm(f2, s), rel=1e-10)


@HSET
@given(st.lists(st.floats(-20, 20), min_size=1, max_size=6),
       st.lists(st.floats(-20, 20), min_size=1, max_size=6))
def test_triangle_inequality(f2, u, v):
    a, b = seq1(*u), seq1(*v)
    lhs = luxemburg_norm(f2, a + b)
    rhs = luxemburg_norm(f2, a) + luxemburg_norm(f2, b)
    assert lhs <= rhs * (1 + 1e-10) + 1e-12
