import math
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
    # _table_sup overwrites the numerator it is handed
    return lambda r, c: (num[r, c].copy(), den[r, c])


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

    def cell(r, c):
        return f.value(x[r, None] + x[c]), phi[r, None] + phi[c]

    half = scalarfn._table_sup((x.size, x.size), cell, symmetric=True)
    assert half == scalarfn._table_sup((x.size, x.size), cell)
    assert half == dense_sup(full_num, phi[:, None] + phi[None, :])


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
