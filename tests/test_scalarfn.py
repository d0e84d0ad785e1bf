import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from twistnorm import (UnboundedConstant, certify, delta2_constant,
                       derive_M_prime, estimate_indices,
                       estimate_type_constant, extend, power, power_log,
                       scale_constant, scalarfn, subadditivity_constant)

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


def test_scale_constant_power():
    assert scale_constant(power(2.0), 3.0) == pytest.approx(9.0, rel=1e-12)
    assert scale_constant(power(2.0), 0.5) == pytest.approx(0.25, rel=1e-9)


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
    assert sc.c_b(1.0) == pytest.approx(1.0, rel=1e-12)
    assert sc.c_b(2.0) == pytest.approx(4.0, rel=1e-12)
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
