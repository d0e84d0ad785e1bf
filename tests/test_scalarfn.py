import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from twistnorm import (UnboundedConstant, certify, delta2_constant,
                       derive_M_prime, estimate_indices,
                       estimate_type_constant, extend, power, power_log,
                       scalarfn, subadditivity_constant)

# frozen expected values
FOUR_OVER_E2 = 4.0 / math.e ** 2          # sup of t |log t|^2 on (0, 1]
ONE_PLUS_LOG2 = 1.0 + math.log(2.0)


# -- construction and shape --------------------------------------------------

def test_power_rejects_small_exponent():
    for bad in (1.0, 0.5, 0.0, -2.0):
        with pytest.raises(ValueError):
            power(bad)
        with pytest.raises(ValueError):
            power_log(bad)


def test_power_values_and_evenness():
    f = power(2.0)
    assert f.value(3.0) == 9.0
    assert f.value(-3.0) == 9.0
    assert f.value(0.0) == 0.0
    x = np.linspace(-5, 5, 101)
    assert np.array_equal(f.value(x), f.value(-x))


def test_power_log_closed_anchors():
    f = power_log(2.0)
    assert f.value(1.0) == pytest.approx(ONE_PLUS_LOG2, rel=1e-15)
    assert f.value_at_1 == pytest.approx(ONE_PLUS_LOG2, rel=1e-15)
    expected_slope = 2.0 * ONE_PLUS_LOG2 + 0.5
    assert f.left_derivative_at_1 == pytest.approx(expected_slope, rel=1e-12)
    got = (f.value(1.0) - f.value(1.0 - 1e-7)) / 1e-7    # left difference
    assert got == pytest.approx(expected_slope, rel=1e-5)


def test_vectorized_shapes():
    f = power_log(2.5)
    x = np.ones((3, 4, 5))
    assert f.value(x).shape == (3, 4, 5)
    assert float(f(2.0)) == f.value(2.0)


# -- extension above 1 -------------------------------------------------------

def test_extend_exponent_picks_steeper_slope():
    base = power_log(2.0)
    ext = extend(base, 2.0)
    q_expected = (2.0 * ONE_PLUS_LOG2 + 0.5) / ONE_PLUS_LOG2
    assert ext.q == pytest.approx(q_expected, rel=1e-12)
    # continuity at the junction
    assert ext.value(1.0) == pytest.approx(base.value(1.0), rel=1e-12)
    left = ext.value(1.0 - 1e-9)
    right = ext.value(1.0 + 1e-9)
    assert abs(left - right) < 1e-7
    # above 1 the growth is the power law
    assert ext.value(2.0) == pytest.approx(base.value_at_1 * 2 ** ext.q,
                                           rel=1e-12)


def test_extend_keeps_claimed_exponent_when_steeper():
    base = power(3.0)
    ext = extend(base, 2.0)
    assert ext.q == pytest.approx(3.0)


def test_extend_rejects_bad_exponent():
    with pytest.raises(ValueError):
        extend(power_log(2.0), 1.0)


# -- certified constants -----------------------------------------------------

def m_prime_sup_reference(p):
    """Oracle: the sup of lam**(p-1) |log lam|**p over the unit axis,
    polished by a bounded scalar minimizer."""
    lam = scalarfn._unit_axis()
    with np.errstate(divide="ignore"):
        vals = lam ** (p - 1.0) * np.abs(np.log(lam)) ** p
    res = minimize_scalar(
        lambda u: -(u ** (p - 1.0)) * abs(math.log(u)) ** p,
        bounds=(1e-12, 1.0 - 1e-12), method="bounded",
        options={"xatol": 1e-13})
    return max(float(vals.max()), float(-res.fun))


def test_m_prime_closed_form():
    got = derive_M_prime(1.0, 2.0)
    assert got == pytest.approx(FOUR_OVER_E2, rel=1e-15)
    # scales linearly in its first argument
    assert derive_M_prime(3.0, 2.0) == pytest.approx(3 * FOUR_OVER_E2,
                                                     rel=1e-15)


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.0])
def test_m_prime_matches_grid_reference(p):
    assert derive_M_prime(1.0, p) == pytest.approx(m_prime_sup_reference(p),
                                                   rel=1e-10)


def test_delta2_powers():
    assert delta2_constant(power(2.0)) == pytest.approx(4.0, rel=1e-12)
    assert delta2_constant(power(3.0)) == pytest.approx(8.0, rel=1e-12)
    assert delta2_constant(power(2.0), domain="at_zero") == pytest.approx(
        4.0, rel=1e-12)


def test_subadditivity_powers():
    assert subadditivity_constant(power(2.0)) == pytest.approx(2.0, rel=1e-9)
    assert subadditivity_constant(power(3.0)) == pytest.approx(4.0, rel=1e-9)
    near_linear = subadditivity_constant(power(1.0001))
    assert near_linear == pytest.approx(1.0, abs=1e-3)


def test_type_constant_bounded_cases():
    assert estimate_type_constant(power(2.0), 2.0) == pytest.approx(
        1.0, abs=1e-9)
    assert estimate_type_constant(power(2.0), 1.5) == pytest.approx(
        1.0, abs=1e-9)


def test_type_constant_unbounded_signal():
    with pytest.raises(UnboundedConstant):
        estimate_type_constant(power(2.0), 2.5)


def test_indices_powers():
    for p in (1.5, 2.0, 3.0):
        lo, hi = estimate_indices(power(p))
        assert lo == pytest.approx(p, abs=0.05 + 1e-9)
        assert hi == pytest.approx(p, abs=0.05 + 1e-9)
        assert lo <= hi + 1e-12


def test_indices_power_log():
    lo, hi = estimate_indices(power_log(2.0))
    assert lo == pytest.approx(2.0, abs=0.1)
    assert hi == pytest.approx(2.0, abs=0.1)


def whole_table_indices(f, nan_row=None):
    """estimate_indices on its whole ratio table, R.max and R.min per
    column, with nan at column 100 of row nan_row of the table."""
    lam = t = scalarfn._unit_axis()
    f_lam = f.value(lam)
    keep = f_lam > 0.0
    R = f.value(lam[keep, None] * t) / f_lam[keep, None]
    if nan_row is not None:
        R[nan_row, 100] = math.nan
    qs = np.arange(1.0, 10.0 + 0.05 / 2.0, 0.05)
    w = t ** -qs[:, None]
    lower = qs[(R.max(axis=0) * w).max(axis=1) <= 2.0]
    upper = qs[(R.min(axis=0) * w).min(axis=1) >= 0.5]
    return (float(lower[-1] if lower.size else 1.0),
            float(upper[0] if upper.size else 10.0)), lam[keep, None] * t


INDEX_MAPS = {"power(2)": lambda: power(2.0),
              "power(30)": lambda: power(30.0),    # drops the smallest lam
              "power_log(2)": lambda: power_log(2.0),
              "extend(power_log(1.5), 2)": lambda: extend(power_log(1.5), 2.0)}


# 64 rows is the package's block; 7 rows leaves a partial last block
@pytest.mark.parametrize("block_rows", [64, 7, 1])
@pytest.mark.parametrize("nan_at", [None, "first", "last"])
@pytest.mark.parametrize("name", sorted(INDEX_MAPS))
def test_index_walk_is_the_whole_table(name, nan_at, block_rows, monkeypatch):
    f = INDEX_MAPS[name]()
    with np.errstate(under="ignore"):
        n_rows = int(np.count_nonzero(f.value(scalarfn._unit_axis()) > 0.0))
    nan_row = {None: None, "first": 0, "last": n_rows - 1}[nan_at]
    want, table_in = whole_table_indices(f, nan_row)
    calls, real = [], scalarfn.OrliczFn.value

    def value(self, x):
        # records each block of f's table (an extension calls its base's
        # value too) and puts nan at nan_row
        out = real(self, x)
        if self is f and np.ndim(x) == 2:
            row = sum(len(c) for c in calls)
            calls.append(np.array(x))
            if nan_row is not None and row <= nan_row < row + len(out):
                out[nan_row - row, 100] = math.nan
        return out

    monkeypatch.setattr(scalarfn, "_BLOCK_CELLS", block_rows * 512)
    monkeypatch.setattr(scalarfn.OrliczFn, "value", value)
    assert estimate_indices(f) == want
    if nan_row is not None:                 # nan fails both index tests
        assert want == (1.0, 10.0)
    # every row of the table once, in order, in blocks of block_rows
    assert [len(c) for c in calls] == [min(block_rows, n_rows - i)
                                       for i in range(0, n_rows, block_rows)]
    assert np.array_equal(np.concatenate(calls), table_in)


def test_certify_working_set():
    # the index table is walked in blocks of 64 of its 512 rows: a traced
    # peak of 1.75 MiB, bounded at about twice
    tracemalloc.start()
    try:
        certify(power(2.0), 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2 ** 20


def test_certify_attaches_constants(f2):
    sc = f2.constants
    assert sc is not None
    assert sc.p == 2.0
    assert sc.C == pytest.approx(2.0, rel=1e-9)
    assert sc.M == pytest.approx(1.0, abs=1e-9)
    assert sc.S == pytest.approx(FOUR_OVER_E2, rel=1e-12)
    assert sc.M_prime == pytest.approx(FOUR_OVER_E2, rel=1e-9)
    assert sc.delta2 == pytest.approx(4.0, rel=1e-12)
    rep = sc.to_report()
    for key in ("p", "C", "M", "S", "M_prime", "delta2", "delta2_at_zero",
                "indices", "grid"):
        assert key in rep


def test_certify_rejects_unbounded_claim():
    with pytest.raises(UnboundedConstant):
        certify(power(2.0), 2.5)


def test_plan_provenance_and_axes(f2):
    grid = f2.constants.grid
    assert grid["points"] == 512 and grid["rounds"] == 3
    glob, unit = scalarfn._global_axis, scalarfn._unit_axis
    assert glob(0).size == unit(0).size == 512
    for k in range(grid["rounds"]):
        # each round doubles the density and widens the open ends
        for axis in (glob, unit):
            assert axis(k + 1).size == 2 * axis(k).size
            assert axis(k + 1).min() < axis(k).min()
        assert glob(k + 1).max() > glob(k).max()
        assert unit(k + 1).max() == 1.0


# -- the grid-sup kernel -----------------------------------------------------

def dense_sup(num, den):
    """Oracle: the whole masked ratio table at once."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return float(np.where((den > 0.0) & np.isfinite(num), num / den,
                              -math.inf).max())


def table_cell(num, den):
    # _table_sup hands each block views of its own scratch to fill
    def cell(r, c, num_out, den_out, spare):
        num_out[...] = num[r, c]
        den_out[...] = den[r, c]
    return cell


def hand_table(case):
    """A 40 x 30 table; each special cell lies on or above the diagonal of
    its top 30 x 30 square, which the symmetric cases mirror."""
    rng = np.random.default_rng(7)
    num = rng.uniform(0.5, 2.0, (40, 30))
    den = rng.uniform(0.5, 2.0, (40, 30))
    if case == "den-zero":
        num[3, 3], den[3, 3] = 1e3, 0.0
    elif case == "den-nan":
        num[5, 6], den[5, 6] = 1e3, math.nan
    elif case == "den-negative":
        num[7, 8], den[7, 8] = -1e3, -1.0
    elif case == "num-inf":
        num[9, 29], den[9, 29] = math.inf, 1.0
    elif case == "num-nan":
        num[0, 29] = math.nan
    elif case == "overflow-kept":
        num[15, 20], den[15, 20] = 1e300, np.finfo(float).tiny
    elif case == "last-cells-max":
        num[29, 29] = num[39, 29] = 1e3
    elif case == "no-usable-cell":
        den[:] = 0.0
    return num, den


TABLE_CASES = ["plain", "den-zero", "den-nan", "den-negative", "num-inf",
               "num-nan", "overflow-kept", "last-cells-max", "no-usable-cell"]
BLOCK_CELLS = [1, 7, 64, 1 << 15]


@pytest.mark.parametrize("block_cells", BLOCK_CELLS)
@pytest.mark.parametrize("case", TABLE_CASES)
def test_table_sup_matches_dense_oracle(case, block_cells, monkeypatch):
    monkeypatch.setattr(scalarfn, "_BLOCK_CELLS", block_cells)
    num, den = hand_table(case)
    got = scalarfn._table_sup(num.shape, table_cell(num, den))
    assert got == dense_sup(num, den)
    if case == "overflow-kept":
        assert got == math.inf
    if case == "no-usable-cell":
        assert got == -math.inf


@pytest.mark.parametrize("block_cells", BLOCK_CELLS)
@pytest.mark.parametrize("case", TABLE_CASES)
def test_table_sup_half_walk_of_symmetric_tables(case, block_cells,
                                                 monkeypatch):
    monkeypatch.setattr(scalarfn, "_BLOCK_CELLS", block_cells)
    num, den = hand_table(case)
    upper = np.arange(30)[:, None] <= np.arange(30)[None, :]
    num = np.where(upper, num[:30], num[:30].T)
    den = np.where(upper, den[:30], den[:30].T)
    got = scalarfn._table_sup(num.shape, table_cell(num, den),
                              symmetric=True)
    assert got == dense_sup(num, den)


@pytest.mark.parametrize("make", [lambda: power_log(2.0),
                                  lambda: extend(power_log(2.0), 2.5)],
                         ids=["power_log(2)", "extend(power_log(2), 2.5)"])
@pytest.mark.parametrize("k", [0, 1])
def test_subadditivity_half_table_equals_full_table(make, k):
    f = make()
    x = scalarfn._global_axis(k)
    with np.errstate(over="ignore"):
        phi = f.value(x)
        full_num = f.value(x[:, None] + x[None, :])

    def cell(r, c, num, den, spare):
        num[...] = f.value(x[r, None] + x[c])
        den[...] = phi[r, None] + phi[c]

    half = scalarfn._table_sup((x.size, x.size), cell, symmetric=True)
    assert half == scalarfn._table_sup((x.size, x.size), cell)
    assert half == dense_sup(full_num, phi[:, None] + phi[None, :])


@pytest.mark.parametrize("symmetric", [False, True])
def test_table_sup_hands_every_block_the_same_scratch(symmetric, monkeypatch):
    # no block allocates: every block's views start at the same three
    # addresses, and a partial last block gets a trimmed view
    monkeypatch.setattr(scalarfn, "_BLOCK_CELLS", 64)
    num, den = hand_table("plain")
    upper = np.arange(30)[:, None] <= np.arange(30)[None, :]
    num = np.where(upper, num[:30], num[:30].T)
    den = np.where(upper, den[:30], den[:30].T)
    starts, shapes, fill = set(), [], table_cell(num, den)

    def cell(r, c, *views):
        starts.add(tuple(v.__array_interface__["data"][0] for v in views))
        shapes.append({v.shape for v in views})
        assert shapes[-1] == {(len(range(30)[r]), len(range(30)[c]))}
        fill(r, c, *views)

    got = scalarfn._table_sup(num.shape, cell, symmetric=symmetric)
    assert len(starts) == 1 and len(shapes) > 2
    # 2-row blocks of 30 columns; the symmetric walk's rows narrow down to
    # a last block of the 4 x 4 corner
    assert shapes[0] == {(2, 30)}
    assert shapes[-1] == ({(4, 4)} if symmetric else {(2, 30)})
    assert got == dense_sup(num, den)


# -- the in-place sweeps against the allocating cells they replace -----------

def allocating_table_sup(shape, cell, symmetric=False):
    """Oracle: the kernel whose cells return a fresh (num, den) per block."""
    n_rows, n_cols = shape
    best = -math.inf
    i = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while i < n_rows:
            j = i if symmetric else 0
            step = max(1, scalarfn._BLOCK_CELLS // (n_cols - j))
            num, den = cell(slice(i, i + step), slice(j, n_cols))
            ok = np.isfinite(num) & (den > 0.0)
            np.divide(num, den, out=num)
            best = max(best, float(num.max(where=ok, initial=-math.inf)))
            i += step
    return best


def allocating_value(f, x):
    """Oracle: each kind's formula as fresh arrays, one ufunc at a time."""
    t = np.abs(np.asarray(x, dtype=float))
    if f.kind == "power":
        return t ** f.p
    if f.kind == "power_log":
        return t ** f.p * (1.0 + np.log1p(t))
    inner = allocating_value(f.base, np.minimum(t, 1.0))
    with np.errstate(over="ignore"):
        outer = f.base.value_at_1 * t ** f.q
    return np.where(t <= 1.0, inner, outer)


def allocating_sweeps(f, p, k):
    """Round k of the type, global and at-zero doubling, and subadditivity
    sups, each cell allocating its blocks."""
    lam, s = scalarfn._unit_axis(k)[:, None], scalarfn._global_axis(k)
    with np.errstate(over="ignore"):
        phi_s = allocating_value(f, s)
    sups = [allocating_table_sup(
        (lam.size, s.size), lambda r, c: (allocating_value(f, lam[r] * s[c]),
                                          lam[r] ** p * phi_s[c]))]
    for axis in (scalarfn._global_axis, scalarfn._unit_axis):
        x = axis(k)[:, None]
        sups.append(allocating_table_sup(
            x.shape, lambda r, c: (allocating_value(f, 2.0 * x[r]),
                                   allocating_value(f, x[r]))))
    sups.append(allocating_table_sup(
        (s.size, s.size),
        lambda r, c: (allocating_value(f, s[r, None] + s[c]),
                      phi_s[r, None] + phi_s[c]),
        symmetric=True))
    return sups


SWEEP_MAPS = {"power(2)": lambda: (power(2.0), 2.0),
              "power(3)": lambda: (power(3.0), 3.0),
              "power_log(2)": lambda: (power_log(2.0), 2.0),
              "extend(power_log(2), 2.5)":
                  lambda: (extend(power_log(2.0), 2.5), 2.5)}


# 300 cells leaves partial last blocks in every sweep, and one-row blocks
@pytest.mark.parametrize("block_cells", [1 << 15, 300])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("name", sorted(SWEEP_MAPS))
def test_in_place_sweeps_are_the_allocating_sweeps(name, k, block_cells,
                                                    monkeypatch):
    f, p = SWEEP_MAPS[name]()
    monkeypatch.setattr(scalarfn, "_BLOCK_CELLS", block_cells)
    rounds = []
    monkeypatch.setattr(scalarfn, "_refined_sup",
                        lambda per_round, what, signal_unbounded=True:
                        rounds.append(per_round) or 0.0)
    estimate_type_constant(f, p)
    delta2_constant(f, "global")
    delta2_constant(f, "at_zero")
    scalarfn._subadditivity_sup(f)
    got = [per_round(k) for per_round in rounds]
    assert list(map(float.hex, got)) == list(
        map(float.hex, allocating_sweeps(f, p, k)))


# ±0, subnormals, 1 and its neighbours, values whose power overflows, ±inf, nan
EDGE_INPUTS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300,
                        np.nextafter(1.0, 0.0), 1.0, -1.0,
                        np.nextafter(1.0, 2.0), 1e10, -1e100, 1e300, 1.7e308,
                        np.inf, -np.inf, np.nan, -np.nan])
VALUE_MAPS = {**SWEEP_MAPS, "power(2.5)": lambda: (power(2.5), 2.5),
              "power(35)": lambda: (power(35.0), 35.0),
              "extend(power(1.5), 2)": lambda: (extend(power(1.5), 2.0), 2.0)}


@pytest.mark.parametrize("name", sorted(VALUE_MAPS))
def test_value_is_the_allocating_formula_on_edge_inputs(name):
    f, _ = VALUE_MAPS[name]()
    x = np.concatenate([EDGE_INPUTS, EDGE_INPUTS[::-1]]).reshape(2, -1)
    before = x.tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        got = f.value(x)
        want = allocating_value(f, x)
        scalars = [f.value(float(v)) for v in EDGE_INPUTS]
    assert x.tobytes() == before                 # the argument is untouched
    assert got.dtype == np.float64 and got.shape == x.shape
    assert got.tobytes() == want.tobytes()
    assert np.array(scalars).tobytes() == want[0].tobytes()
    assert all(type(v) is np.float64 for v in scalars)


# -- certified reports, pinned to the last digit -----------------------------

GRID_PROTOCOL = {"points": 512, "lo": 1e-09, "hi": 1000000000.0,
                 "zero_lo": 1e-12, "rounds": 3, "growth_tol": 0.1,
                 "range_stretch": 1000.0}

GOLDEN_REPORTS = {
    "power(1.5)": (lambda: power(1.5), 1.5, {
        "p": 1.5, "C": 1.4142135623730951, "delta2": 2.8284271247461903,
        "delta2_at_zero": 2.8284271247461903, "M": 1.0,
        "S": 1.1594183222341825, "M_prime": 1.1594183222341825,
        "indices": [1.5000000000000004, 1.5000000000000004],
        "grid": {**GRID_PROTOCOL, "delta2_grid": 2.8284271247461907,
                 "delta2_at_zero_grid": 2.8284271247461907,
                 "C_grid": 1.4142135623730954,
                 "M_grid": 1.0000000000000004}}),
    "power(2)": (lambda: power(2.0), 2.0, {
        "p": 2.0, "C": 2.0, "delta2": 4.0, "delta2_at_zero": 4.0, "M": 1.0,
        "S": 0.5413411329464508, "M_prime": 0.5413411329464508,
        "indices": [2.000000000000001, 2.000000000000001],
        "grid": {**GRID_PROTOCOL, "delta2_grid": 4.0,
                 "delta2_at_zero_grid": 4.0, "C_grid": 2.0,
                 "M_grid": 1.0000000000000007}}),
    "power(3)": (lambda: power(3.0), 3.0, {
        "p": 3.0, "C": 4.0, "delta2": 8.0, "delta2_at_zero": 8.0, "M": 1.0,
        "S": 0.16803135574154082, "M_prime": 0.16803135574154082,
        "indices": [3.0000000000000018, 3.0000000000000018],
        "grid": {**GRID_PROTOCOL, "delta2_grid": 8.0,
                 "delta2_at_zero_grid": 8.0, "C_grid": 4.0,
                 "M_grid": 1.0000000000000007}}),
    "power_log(2)": (lambda: power_log(2.0), 2.0, {
        "p": 2.0, "C": 2.4905710245493604, "delta2": 4.981142049098721,
        "delta2_at_zero": 4.957896898187132, "M": 1.0000000000000004,
        "S": 0.5413411329464508, "M_prime": 0.541341132946451,
        "indices": [2.000000000000001, 2.000000000000001],
        "grid": {**GRID_PROTOCOL, "delta2_grid": 4.981142049098721,
                 "delta2_at_zero_grid": 4.957896898187132,
                 "C_grid": 2.4905710245493604,
                 "M_grid": 1.0000000000000004}}),
    "power_log(3)": (lambda: power_log(3.0), 3.0, {
        "p": 3.0, "C": 4.98114204909872, "delta2": 9.96228409819744,
        "delta2_at_zero": 9.915793796374263, "M": 1.0000000000000007,
        "S": 0.16803135574154082, "M_prime": 0.16803135574154093,
        "indices": [3.0000000000000018, 3.0000000000000018],
        "grid": {**GRID_PROTOCOL, "delta2_grid": 9.96228409819744,
                 "delta2_at_zero_grid": 9.915793796374263,
                 "C_grid": 4.98114204909872,
                 "M_grid": 1.0000000000000007}}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_certify_report_is_pinned(name):
    make, p, expected = GOLDEN_REPORTS[name]
    assert certify(make(), p).constants.to_report() == expected


def test_certify_runs_the_global_doubling_sweep_once(monkeypatch):
    calls, real = [], scalarfn.delta2_constant

    def delta2_constant(f, domain="global"):
        calls.append(domain)
        return real(f, domain)

    monkeypatch.setattr(scalarfn, "delta2_constant", delta2_constant)
    make, p, expected = GOLDEN_REPORTS["power_log(2)"]
    f = make()
    assert certify(f, p).constants.to_report() == expected
    assert sorted(calls) == ["at_zero", "global"]
    # a direct caller still gets the doubling guard
    calls.clear()
    subadditivity_constant(f)
    assert calls == ["global"]


def test_certify_large_exponent_is_warning_free():
    # from p = 27 on f(lam) underflows to 0 on the index grid; those lam
    # are skipped, so no 0/0 reaches the index scan
    for p in (20.0, 27.0, 30.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sc = certify(power(p), p).constants
        assert sc.M == 1.0 and sc.delta2 == 2.0 ** p
        assert sc.indices == (10.000000000000007, 10.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 20.0])
def test_evaluate_is_value_on_length_one_rows(p):
    f = power(p)
    x = np.random.default_rng(3).standard_normal(257) * 10.0
    assert np.array_equal(f.evaluate(x[:, None]), f.value(x))
    assert f.dim == 1 and f.radially_monotone


# -- property-based shape checks --------------------------------------------

@settings(max_examples=40, deadline=None)
@given(p=st.floats(min_value=1.01, max_value=4.0),
       t=st.floats(min_value=-50.0, max_value=50.0))
def test_hypothesis_evenness(p, t):
    f = power_log(p)
    assert f.value(t) == f.value(-t)


@settings(max_examples=40, deadline=None)
@given(p=st.floats(min_value=1.01, max_value=4.0),
       a=st.floats(min_value=0.0, max_value=20.0),
       b=st.floats(min_value=0.0, max_value=20.0))
def test_hypothesis_midpoint_convexity(p, a, b):
    f = power_log(p)
    mid = f.value(0.5 * (a + b))
    avg = 0.5 * (f.value(a) + f.value(b))
    assert mid <= avg * (1.0 + 1e-12) + 1e-300


@settings(max_examples=40, deadline=None)
@given(p=st.floats(min_value=1.01, max_value=4.0),
       a=st.floats(min_value=0.0, max_value=20.0),
       b=st.floats(min_value=0.0, max_value=20.0))
def test_hypothesis_monotone(p, a, b):
    f = power_log(p)
    lo, hi = min(a, b), max(a, b)
    assert f.value(lo) <= f.value(hi) * (1.0 + 1e-12) + 1e-300
