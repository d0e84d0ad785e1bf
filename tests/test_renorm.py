import json
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import elementwise

from twistnorm import (BlockSeq, GaugeSpec, GridMap, NumericSignal, YoungMap,
                       build_phitilde, build_pipeline, build_star_norm,
                       lambda_norm, level_constant, match_lambda_norm,
                       prefix_substitution_check, radial_power, select_alpha,
                       star_iterate, substitution_differences,
                       suff_criterion_check, suff_margins, triangle_violation)
from twistnorm import renorm, sampling

SQRT2 = math.sqrt(2.0)


def slu(rng, shape, lo, hi):
    """sampling.signed_log_uniform on magnitudes, then signs, from rng."""
    return sampling.signed_log_uniform(rng.random(shape), rng.random(shape),
                                       lo, hi)


@pytest.fixture(scope="module")
def t4_pipe():
    return build_pipeline("t4-pipeline")


@pytest.fixture(scope="module")
def r2_pipe():
    return build_pipeline("r2-pipeline")


# -- gauges and level constants -------------------------------------------------

def test_gauge_closed_form_square(t2_pipe):
    g = t2_pipe.g
    assert g.alpha == 0.5
    got = g.gauge(np.array([[1.0], [0.0], [-3.0], [1.0 / SQRT2]]))
    assert got[0] == pytest.approx(SQRT2, rel=1e-12)
    assert got[1] == 0.0
    assert got[2] == pytest.approx(3.0 * SQRT2, rel=1e-12)
    # exactly 1 on the level set
    assert got[3] == pytest.approx(1.0, rel=1e-12)


def test_gauge_bisection_matches_closed_form(t2_pipe, t4_pipe, r2_pipe):
    # the per-point bisection is the oracle for |x| * gauge(e1)
    for pipe in (t2_pipe, t4_pipe, r2_pipe):
        g = pipe.g
        assert g.unit_scale is not None
        pts = slu(sampling.rng(13), (2000, g.base.dim), 1e-6, 1e6)
        slow = renorm._gauge_eval(g.base, g.alpha, pts)
        assert np.all(np.abs(g.gauge(pts) - slow) <= 1e-12 * slow)


EXTREMES = [1e-300, 1e-160, 5e-324, 1e160, 1e300]


def _extreme_points(dim, v):
    if dim == 1:
        return np.array([[v], [-v], [3.0 * v]])
    return np.array([[v, v / 3.0], [-v, 0.0], [0.0, 3.0 * v]])


@pytest.mark.parametrize("v", EXTREMES)
def test_gauge_bisection_extreme_scales(v):
    # r2's base; the gauge of {|x|**2 <= 1/2} is sqrt(2) |x|
    g = GaugeSpec(base=radial_power(2, 2.0), alpha=0.5, M=1.0)
    pts = _extreme_points(2, v)
    want = [SQRT2 * math.hypot(*x) for x in pts]
    # abs: a subnormal result is rounded to a multiple of 5e-324
    assert renorm._gauge_eval(g.base, g.alpha, pts) == pytest.approx(
        want, rel=1e-11, abs=5e-324)


def test_gauge_bisection_non_dyadic_alpha():
    # base / 0.3 rounds, unlike base / 2**-j; the gauge is |x| / sqrt(0.3)
    g = GaugeSpec(radial_power(2, 2.0), 0.3, math.nan)
    pts = np.concatenate(
        [slu(sampling.rng(13), (2000, 2), 1e-6, 1e6)]
        + [_extreme_points(2, v) for v in EXTREMES])
    want = np.hypot(pts[:, 0], pts[:, 1]) / math.sqrt(0.3)
    assert g.gauge(pts) == pytest.approx(want, rel=1e-12, abs=5e-324)


@pytest.mark.parametrize("v", EXTREMES)
@pytest.mark.parametrize("name", ["t2", "r2"])
def test_closed_gauge_extreme_scales(name, v, t2_pipe, r2_pipe):
    g = {"t2": t2_pipe, "r2": r2_pipe}[name].g
    pts = _extreme_points(g.base.dim, v)
    want = [SQRT2 * math.hypot(*x) for x in pts]
    assert g.gauge(pts) == pytest.approx(want, rel=1e-11, abs=5e-324)


@pytest.mark.parametrize("name", ["t2", "r2"])
def test_star_norm_tiny_first_coordinate(name, t2_pipe, r2_pipe):
    # x / x0 = 1e290: the gauge of the ratio must not overflow to inf
    norm = {"t2": t2_pipe, "r2": r2_pipe}[name].norm
    block = np.zeros(norm.dim)
    block[0] = 1e-10
    # base(1e290) overflows to inf, which puts the point on the gauge branch
    with np.errstate(over="ignore"):
        value = norm.value(1e-300, block)
    assert value == pytest.approx(norm.g.M * SQRT2 * 1e-10, rel=1e-11)


def test_gauge_dimension_check(t2_pipe):
    with pytest.raises(ValueError):
        t2_pipe.g.gauge(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="axis of size 1"):
        t2_pipe.g.gauge(2.0)      # points must end in an axis of size dim


def test_level_constant_square():
    base = radial_power(1, 2.0)
    half = GaugeSpec(base=base, alpha=0.5, M=math.nan, unit_scale=SQRT2)
    assert level_constant(half) == pytest.approx(1.0, abs=1e-8)
    eighth = GaugeSpec(base=base, alpha=0.125, M=math.nan,
                       unit_scale=math.sqrt(8.0))
    assert level_constant(eighth) == pytest.approx(0.25, abs=1e-8)


def test_level_constant_bounds_the_left_derivative_at_a_kink():
    # max(t^2, 3 t^2 - 1) kinks at the alpha = 1/2 seam t = 1/sqrt(2): the
    # radial derivative is 1 from the left and 3 from the right
    kinked = YoungMap(dim=1, fn=lambda p: np.maximum(p[..., 0] ** 2,
                                                     3.0 * p[..., 0] ** 2 - 1.0),
                      radially_monotone=True, convex=True)
    M = level_constant(GaugeSpec(base=kinked, alpha=0.5, M=math.nan))
    assert M >= 1.0
    assert M == pytest.approx(2.0, rel=1e-5)    # the mean of the two sides


# -- alpha selection ------------------------------------------------------------

def test_select_alpha_square(t2_pipe):
    assert t2_pipe.g.alpha == 0.5
    assert t2_pipe.g.M == pytest.approx(1.0, abs=1e-9)
    assert t2_pipe.g.unit_scale == pytest.approx(SQRT2, rel=1e-12)


def test_select_alpha_quartic(t4_pipe):
    assert t4_pipe.g.alpha == 0.25
    assert t4_pipe.g.M == pytest.approx(1.0, abs=1e-8)


def reference_tau(base, y):
    """min(argmin_t (1 + base(t y)) / t, 1 / ||y||) per row of y: scipy's
    Chandrupatla minimiser inside the bracket of a 64-point log grid."""
    cap = 1.0 / np.linalg.norm(y, axis=-1)
    grid = np.geomspace(cap * 1e-8, cap, 64, axis=-1)
    vals = (1.0 + base.evaluate(grid[..., None] * y[:, None, :])) / grid
    j = np.argmin(vals, axis=-1)
    assert not (j == 0).any()
    rows = np.flatnonzero(j < 63)

    def expr(t, *coords):
        return (1.0 + base.evaluate(t[..., None]
                                    * np.stack(coords, axis=-1))) / t

    res = elementwise.find_minimum(
        expr, tuple(grid[rows, j[rows] + k] for k in (-1, 0, 1)),
        args=tuple(y[rows].T))
    assert res.success.all()
    tau = cap.copy()
    tau[rows] = np.minimum(res.x, cap[rows])
    return tau


def reference_ceiling(base):
    """inf over the ||y||_2 = 1/2 sphere of base(tau(y) y): the ray
    ceiling that select_alpha replaces by base on the unit sphere."""
    y = 0.5 * renorm._sphere_dirs(base.dim, renorm.N_SPHERE)
    return float(base.evaluate(reference_tau(base, y)[:, None] * y).min())


def test_quartic_ray_geometry():
    base = radial_power(1, 4.0)
    # the argmin of a smooth flat-bottomed expression is only sqrt(eps) sharp
    tau = reference_tau(base, np.array([[0.5], [-0.5]]))
    assert tau == pytest.approx([(16.0 / 3.0) ** 0.25] * 2, rel=1e-7)
    assert reference_ceiling(base) == pytest.approx(1.0 / 3.0, rel=1e-6)


@pytest.mark.parametrize("dim", [1, 2])
def test_square_ray_minimum_is_the_cap(dim):
    # (1 + t^2 / 4) / t decreases up to t = 2 = 1 / ||y||: every ray is capped
    y = 0.5 * renorm._sphere_dirs(dim, 720)
    tau = reference_tau(radial_power(dim, 2.0), y)
    assert np.array_equal(tau, 1.0 / np.linalg.norm(y, axis=-1))


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_ray_refinement_differential(dim, p):
    # argmin of (1 + (t r)^p) / t is (p - 1)^(-1/p) / r, inside the cap 1 / r
    y = 0.5 * renorm._sphere_dirs(dim, renorm.N_SPHERE)
    closed = (p - 1.0) ** (-1.0 / p) / np.linalg.norm(y, axis=-1)
    np.testing.assert_allclose(reference_tau(radial_power(dim, p), y),
                               closed, rtol=1e-7, atol=0.0)


def _convex(dim, fn):
    return YoungMap(dim=dim, fn=fn, radially_monotone=True, convex=True)


# base, and the alpha and M that select_alpha picks; both were pinned with
# reference_ceiling's ray minima in place of the unit-sphere minimum
ALPHA_BASES = {
    "tenth-square-d1": (lambda: _convex(1, lambda p: 0.1 * p[..., 0] ** 2),
                        0.0625, 0.12499999998971667),
    "tenth-square-d2": (lambda: _convex(2, lambda p: 0.1 * np.sum(p * p, -1)),
                        0.0625, 0.12500000001053335),
    "square-d1": (lambda: radial_power(1, 2.0), 0.5, 1.000000000001),
    "cube-d1": (lambda: radial_power(1, 3.0), 0.25, 0.7499999999660556),
    "quartic-d1": (lambda: radial_power(1, 4.0), 0.25, 1.000000000001),
    "cosh-d1": (lambda: _convex(1, lambda p: np.cosh(p[..., 0]) - 1.0),
                0.25, 0.5198603854061901),
    "square-d2": (lambda: radial_power(2, 2.0), 0.5, 1.0000000000842668),
    "sixth-d2": (lambda: radial_power(2, 6.0), 0.125, 0.7500000000632001),
    "ellipse-d2": (lambda: _convex(2, lambda p: p[..., 0] ** 2
                                   + 4.0 * p[..., 1] ** 2),
                   0.5, 1.0000000000565112),
    "max-square-d2": (lambda: _convex(2, lambda p: np.max(np.abs(p), -1) ** 2),
                      0.5, 1.0000000000287557),
    "l1-square-d2": (lambda: _convex(2, lambda p: np.sum(np.abs(p), -1) ** 2),
                     0.5, 1.0000000000842668),
    "square-quartic-d2": (lambda: _convex(2, lambda p: p[..., 0] ** 2
                                          + p[..., 1] ** 4),
                          0.25, 1.000000000001),
}


@pytest.mark.parametrize("name", sorted(ALPHA_BASES))
def test_select_alpha_matches_the_ray_ceiling(name):
    make, alpha, M = ALPHA_BASES[name]
    base = make()
    g = select_alpha(base)
    ceiling = reference_ceiling(base)
    assert g.alpha == alpha
    assert g.alpha <= ceiling + 1e-12
    # the alpha tried before this one fails the level constant or the ceiling
    if 2.0 * g.alpha <= 1.0:
        prev = level_constant(GaugeSpec(base=base, alpha=2.0 * g.alpha,
                                        M=math.nan))
        assert prev > 1.0 + 1e-9 or 2.0 * g.alpha > ceiling + 1e-12
    assert g.M == M


@pytest.mark.parametrize("name", ["tenth-square-d1", "tenth-square-d2"])
def test_select_alpha_only_the_cap_rejects(name):
    # 0.1 |x|^2 has M = 2 alpha, so alpha = 1/8 passes the level constant;
    # base = 0.1 on the unit sphere is the only bound that rejects it
    base = ALPHA_BASES[name][0]()
    assert level_constant(GaugeSpec(base=base, alpha=0.125, M=math.nan)) < 1
    assert reference_ceiling(base) == pytest.approx(0.1, rel=1e-12)
    assert select_alpha(base).alpha == 0.0625


def _grid_square():
    ax = np.linspace(-2.0, 2.0, 41)
    return GridMap(axes=(ax,), table=ax ** 2, radially_monotone=True,
                   convex=True, label="grid t^2")


# base, and the alpha and M that select_alpha picks for it
BUILT_BASES = {
    # 1e30 t^2 puts the unit gauge sphere at 1e-15; the relative radial
    # step (1 +- h) x stays on the ray there
    "steep-d1": (lambda: _convex(1, lambda p: 1e30 * p[..., 0] ** 2),
                 0.5, 1.0),
    # a GridMap as it stands: t^2 on 41 nodes is piecewise linear and
    # convex, and its alpha = 1/4 seam is the node 1/2, between slopes 0.9
    # and 1.1, so M is the mean 1 times 1/2
    "grid-square-d1": (_grid_square, 0.25, 0.5),
    # max(|x|, |y|)^2 is c t^2 along each ray, so M = 2 alpha; only steps
    # off the ray meet its kinks
    "max-square-d2": (ALPHA_BASES["max-square-d2"][0], 0.5, 1.0),
}


@pytest.mark.parametrize("name", sorted(BUILT_BASES))
def test_select_alpha_builds_a_certified_norm(name):
    make, alpha, M = BUILT_BASES[name]
    g = select_alpha(make())
    assert g.alpha == alpha
    assert abs(g.M - M) <= 1e-9
    assert triangle_violation(build_star_norm(g), 10_000, 0) <= 1e-10


@pytest.mark.parametrize("dim", [1, 2])
def test_select_alpha_non_finite_on_the_unit_sphere_raises(dim):
    # |x|^2 on the open unit ball, +inf from the unit sphere outwards
    def fn(p):
        r2 = np.sum(p * p, axis=-1)
        return np.where(r2 < 1.0, r2, np.inf)

    with pytest.raises(NumericSignal, match="not finite on the unit sphere"):
        select_alpha(_convex(dim, fn))


def test_select_alpha_radial(r2_pipe):
    assert r2_pipe.g.alpha == 0.5
    assert r2_pipe.g.M == pytest.approx(1.0, abs=1e-8)


def test_r2_build_gauges_only_e1(monkeypatch):
    calls = []
    real = renorm._gauge_eval

    def counted(base, alpha, pts):
        calls.append((alpha, np.array(pts)))
        return real(base, alpha, pts)

    monkeypatch.setattr(renorm, "_gauge_eval", counted)
    assert build_pipeline("r2-pipeline").g.alpha == 0.5
    # one bisection of e1 per alpha tried
    assert [a for a, _ in calls] == [1.0, 0.5]
    assert all(np.array_equal(pts, [[1.0, 0.0]]) for _, pts in calls)


def _ellipse(c):
    # x**2 + c y**2 is convex and even; radial only for c = 1
    return YoungMap(dim=2, fn=lambda p: p[..., 0] ** 2 + c * p[..., 1] ** 2,
                    radially_monotone=True, convex=True)


@pytest.mark.parametrize("c", [1.0, 4.0, 1.0000001])
def test_select_alpha_closed_form_only_where_exact(c, monkeypatch):
    base = _ellipse(c)
    g = select_alpha(base)
    assert (g.unit_scale is not None) == (c == 1.0)
    build_phitilde(g)
    # oracle: the same search with the gauge bisected point by point
    monkeypatch.setattr(renorm, "_seam_gap", lambda g, n: math.inf)
    slow = select_alpha(base)
    assert slow.unit_scale is None
    assert slow.alpha == g.alpha
    assert slow.M == pytest.approx(g.M, rel=1e-11)
    if g.unit_scale is None:
        assert slow.M == g.M


def test_select_alpha_validation():
    bumpy = YoungMap(dim=1, fn=lambda p: np.abs(np.sin(p[..., 0])),
                     radially_monotone=True, convex=False)
    with pytest.raises(ValueError):
        select_alpha(bumpy)
    with pytest.raises(ValueError):
        select_alpha(radial_power(3, 2.0))


# -- the extension --------------------------------------------------------------

def test_phitilde_square_anchors(t2_pipe):
    pt = t2_pipe.phitilde
    # inside the unit gauge ball the extension is the base itself
    assert pt.evaluate(np.array([[0.5]]))[0] == pytest.approx(0.25, rel=1e-12)
    assert pt.evaluate(np.array([[1.0 / SQRT2]]))[0] == pytest.approx(
        0.5, rel=1e-10)
    # outside it grows linearly in the gauge
    want = SQRT2 - 0.5
    assert pt.evaluate(np.array([[1.0]]))[0] == pytest.approx(want, rel=1e-9)
    assert pt.evaluate(np.array([[2.0]]))[0] == pytest.approx(
        0.5 + t2_pipe.g.M * (2.0 * SQRT2 - 1.0), rel=1e-9)


def phitilde_by_gauge(g, pts):
    """Reference extension: the gauge, not the base, picks the branch."""
    gz = g.gauge(pts)
    return np.where(gz <= 1.0, g.base.evaluate(pts), g.alpha + g.M * (gz - 1.0))


@pytest.mark.parametrize("name, p", [("t2", 2), ("t4", 4), ("r2", 2)])
def test_phitilde_matches_gauge_branching(name, p, t2_pipe, t4_pipe, r2_pipe):
    pipe = {"t2": t2_pipe, "t4": t4_pipe, "r2": r2_pipe}[name]
    g = pipe.g
    rng = sampling.rng(11)
    wide = slu(rng, (4000, g.base.dim), 1e-6, 1e6)
    # dim 1 has a two-point sphere: repeat it to 256 seam points
    sphere = np.resize(renorm._unit_gauge_sphere(g, 256), (256, g.base.dim))
    near = sphere * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, (256, 1)))
    pts = np.concatenate([wide, sphere, near])
    want = phitilde_by_gauge(g, pts)
    got = pipe.phitilde.evaluate(pts)
    inside = g.gauge(pts) <= 1.0
    same = inside == (g.base.evaluate(pts) <= g.alpha)
    # the seam points take both branches, so the bound below is exercised
    seam = inside[4000:]
    assert same[:4000].all() and seam.any() and not seam.all()
    assert np.array_equal(got[same], want[same])
    # the branch tests disagree only on the seam, where the gauge's 1e-12
    # bracket width, magnified p times by a base of degree p, bounds the gap
    assert np.all(np.abs(got - want) <= p * 1e-12 * np.abs(want))


@pytest.mark.parametrize("name", ["t2", "r2"])
def test_phitilde_gauges_only_outside(name, t2_pipe, r2_pipe, monkeypatch):
    pipe = {"t2": t2_pipe, "r2": r2_pipe}[name]
    g = pipe.g
    seen = []
    real = GaugeSpec.gauge

    def recorded(self, pts):
        seen.append(np.array(pts))
        return real(self, pts)

    monkeypatch.setattr(GaugeSpec, "gauge", recorded)
    pts = slu(sampling.rng(12), (3000, g.base.dim), 1e-3, 1e3)
    pipe.phitilde.evaluate(pts)
    gauged = np.concatenate(seen)
    outside = g.base.evaluate(pts) > g.alpha
    assert 0 < len(gauged) == outside.sum() < len(pts)
    assert np.array_equal(gauged, pts[outside])


def test_phitilde_continuous_at_seam(t2_pipe):
    pt = t2_pipe.phitilde
    x = 1.0 / SQRT2
    lo = pt.evaluate(np.array([[x * (1 - 1e-9)]]))[0]
    hi = pt.evaluate(np.array([[x * (1 + 1e-9)]]))[0]
    assert hi == pytest.approx(lo, abs=1e-8)


def test_phitilde_seam_guard():
    base = radial_power(1, 2.0)
    broken = GaugeSpec(base=base, alpha=0.5, M=1.0, unit_scale=2.0 * SQRT2)
    with pytest.raises(NumericSignal):
        build_phitilde(broken)


# -- the star norm ---------------------------------------------------------------

def test_star_norm_square_anchors(t2_pipe):
    n = t2_pipe.norm
    assert n.value(1.0, [0.0]) == 1.0
    assert n.value(1.0, [1.0]) == pytest.approx(SQRT2 + 0.5, rel=1e-9)
    assert n.value(0.0, [1.0]) == pytest.approx(SQRT2, rel=1e-9)
    assert n.value(-2.0, [0.0]) == 2.0
    # homogeneity
    assert n.value(0.5, [0.7]) == pytest.approx(0.5 * n.value(1.0, [1.4]),
                                                rel=1e-12)


def _norm_points(dim, n, key):
    """Seeded points of R^(n+1) over twelve decades, the first quarter
    with x0 = 0 and one of those at the origin."""
    pts = slu(sampling.rng(key, dim), (n, dim + 1), 1e-6, 1e6)
    pts[:n // 4, 0] = 0.0
    pts[0] = 0.0
    return pts


@pytest.mark.parametrize("pipe", ["t2_pipe", "t4_pipe", "r2_pipe"])
def test_star_norm_matches_the_masked_form(pipe, request):
    norm = request.getfixturevalue(pipe).norm
    pts = _norm_points(norm.dim, 2000, 43)
    got = norm.evaluate(pts)
    ref = np.array([reference_value(norm, p[0], p[1:]) for p in pts])
    assert got[0] == ref[0] == 0.0
    assert np.all(np.abs(got - ref) <= 1e-15 * ref)


@pytest.mark.parametrize("pipe", ["t2_pipe", "t4_pipe", "r2_pipe"])
def test_star_norm_is_pointwise_whatever_the_shape(pipe, request):
    norm = request.getfixturevalue(pipe).norm
    pts = _norm_points(norm.dim, 24, 44)
    rng = sampling.rng(45)
    pts = pts[rng.permutation(len(pts))]     # x0 = 0 rows among the others
    each = np.array([norm.value(p[0], p[1:]) for p in pts])
    assert np.array_equal(_bits(norm.evaluate(pts)), _bits(each))
    grid = norm.evaluate(pts.reshape(2, 3, 4, norm.dim + 1))
    assert grid.shape == (2, 3, 4)
    assert np.array_equal(_bits(grid.reshape(-1)), _bits(each))
    for p, want in zip(pts, each):            # one 1-D point
        assert np.array_equal(_bits(norm.evaluate(p)), _bits(want))


@pytest.mark.parametrize("pipe", ["t2_pipe", "r2_pipe"])
def test_star_norm_gauges_only_outside(pipe, request, monkeypatch):
    norm = request.getfixturevalue(pipe).norm
    g = norm.g
    seen = []
    real = GaugeSpec.gauge

    def recorded(self, pts):
        seen.append(np.array(pts))
        return real(self, pts)

    pts = _norm_points(norm.dim, 3000, 46)
    x = pts[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        outside = ~(g.base.evaluate(x / np.abs(pts[:, :1])) <= g.alpha)
    monkeypatch.setattr(GaugeSpec, "gauge", recorded)
    norm.evaluate(pts)
    gauged = np.concatenate(seen)
    # every x0 = 0 point is outside, and some others are inside
    assert outside[:750].all() and 750 < outside.sum() < len(pts)
    assert np.array_equal(gauged, x[outside])


def test_star_norm_report(t2_pipe):
    rep = t2_pipe.report()
    assert set(rep) == {"alpha", "M", "decreasing_ok", "decreasing_max_step",
                        "monotone_max_violation", "N_unit", "limit_gap",
                        "seed"}
    assert rep["decreasing_ok"] is True
    assert rep["N_unit"] == 1.0
    assert rep["decreasing_max_step"] <= 1e-10
    assert rep["monotone_max_violation"] <= 1e-12
    assert rep["limit_gap"] <= 1e-6


def test_star_norm_shape_validation(t2_pipe):
    with pytest.raises(ValueError):
        t2_pipe.norm.evaluate(np.zeros((3, 5)))


def test_star_norm_radial_anchor(r2_pipe):
    assert r2_pipe.norm.value(0.0, [1.0, 0.0]) == pytest.approx(SQRT2,
                                                                rel=1e-9)
    assert r2_pipe.norm.value(1.0, [0.0, 0.0]) == 1.0


def test_star_norm_triangle(t2_pipe):
    assert triangle_violation(t2_pipe.norm, 20_000, 3) <= 1e-10


@pytest.mark.parametrize("trials", [0, -5])
def test_triangle_violation_needs_trials(trials, t2_pipe):
    with pytest.raises(ValueError, match="trials must be positive"):
        triangle_violation(t2_pipe.norm, trials, 3)


def test_star_norm_certificate_failure():
    # with M = 2 > 1 + alpha, (1 + phitilde(t x)) / t is
    # (1 + alpha - M) / t + M gauge(x) outside the unit gauge ball, which
    # rises along rays: check (a) refuses the extension of g itself
    g = GaugeSpec(base=radial_power(1, 2.0), alpha=0.5, M=2.0,
                  unit_scale=SQRT2)
    with pytest.raises(NumericSignal, match=r"^\(1 \+ ext\(t x\)\) / t "
                       r"increased by .* along a sampled ray; the extension "
                       r"is not certified$"):
        build_star_norm(g)


def test_star_norm_certificate_reading_nan_raises():
    # M = nan makes checks (a), (b) and (d) read nan, which is no pass:
    # (a) is the first to refuse it
    g = GaugeSpec(radial_power(1, 2.0), 0.5, math.nan, SQRT2)
    with pytest.raises(NumericSignal, match=r"increased by nan relative"):
        build_star_norm(g)


@pytest.mark.parametrize("pipe", ["t2_pipe", "t4_pipe", "r2_pipe"])
def test_n_evaluates_the_certified_extension(pipe, request):
    # the phitilde a pipeline hands to the suff check, build_phitilde(g),
    # is the extension N computes: N(1, x) is 1 + phitilde(x) bitwise
    # inside the unit gauge ball, on its sphere and outside it, out to
    # 1e200, where the base overflows and neither warns
    built = request.getfixturevalue(pipe)
    g = built.norm.g
    sphere = renorm._unit_gauge_sphere(g, 64)
    x = np.concatenate([sphere * s for s in (0.0, 0.25, 0.5, 1.0 - 1e-12,
                                             1.0, 1.0 + 1e-12, 2.0, 1e3,
                                             1e200)])
    with np.errstate(over="ignore"):
        inside = g.base.evaluate(x) <= g.alpha
    assert inside.any() and not inside.all()
    got = built.norm.evaluate(np.concatenate([np.ones((len(x), 1)), x], -1))
    want = 1.0 + built.phitilde.evaluate(x)
    assert np.array_equal(_bits(got), _bits(want))


# -- checks (a) and (b) run in blocks -----------------------------------------------

def star_norm_draws(dim, seed=1234):
    """Check (a)'s (ray, t) points with t, check (b)'s two tuple sets and
    check (d)'s 64 probes, each sample drawn whole from its keyed stream."""
    def sample(key, n, width):
        return sampling.rng(seed, key).random((n, width))

    u = sample(sampling.STAR_RAYS, 1000, 2 * dim)
    rays = sampling.signed_log_uniform(u[:, :dim], u[:, dim:], 1e-2, 1e2)
    rays /= np.linalg.norm(rays, axis=-1, keepdims=True)
    t = np.geomspace(1e-6, 1e6, 1000)
    u = sample(sampling.STAR_TUPLES, 100_000, 2 * dim + 2)
    blocks = sampling.signed_log_uniform(u[:, :dim], u[:, dim:2 * dim],
                                         1e-2, 1e2)
    a = 10.0 ** (-3.0 + 6.0 * u[:, 2 * dim])
    b = a * (1.0 + u[:, 2 * dim + 1])
    u = sample(sampling.STAR_PROBES, 64, 2 * dim)
    probes = sampling.signed_log_uniform(u[:, :dim], u[:, dim:], 1e-2, 1e2)
    return (rays[:, None, :] * t[None, :, None], t,
            np.concatenate([a[:, None], blocks], axis=-1),
            np.concatenate([b[:, None], blocks], axis=-1), probes)


def whole_array_checks(g, seed=1234):
    """Checks (a), (b) and (d), each as one pass over its whole array."""
    pts, t, tuples_a, tuples_b, probes = star_norm_draws(g.base.dim, seed)
    vals = (1.0 + build_phitilde(g).evaluate(pts)) / t[None, :]
    rel = (vals[:, 1:] - vals[:, :-1]) / np.maximum(vals[:, :-1], 1e-300)
    norm = renorm.StarNorm(g=g)
    na, nb = norm.evaluate(tuples_a), norm.evaluate(tuples_b)
    closed = norm.evaluate(np.concatenate([np.zeros((64, 1)), probes], -1))
    limit = norm.evaluate(np.concatenate([np.full((64, 1), 1e-8), probes],
                                         -1))
    return (float(rel.max()),
            float(((na - nb) / np.maximum(nb, 1e-300)).max()),
            float(np.max(np.abs(limit - closed) / np.maximum(closed, 1e-300))))


def assert_blocked_checks_are_whole(pipe, seed, request):
    if pipe == "ellipse":
        # a dim-2 base whose gauge is solved point by point
        g = select_alpha(_ellipse(4.0))
        assert g.unit_scale is None
        report = build_star_norm(g, rng_seed=seed).report
    else:
        norm = request.getfixturevalue(pipe).norm
        g = norm.g
        report = (norm.report if seed == 1234
                  else build_star_norm(g, rng_seed=seed).report)
    assert report["seed"] == seed
    assert whole_array_checks(g, seed) == (report["decreasing_max_step"],
                                           report["monotone_max_violation"],
                                           report["limit_gap"])


@pytest.mark.parametrize("pipe", ["t2_pipe", "t4_pipe", "r2_pipe", "ellipse"])
def test_blocked_checks_are_the_whole_array_checks(pipe, request):
    assert_blocked_checks_are_whole(pipe, 1234, request)


# a second seed: the rows are not right at 1234 alone
@pytest.mark.parametrize("pipe", ["t2_pipe", "t4_pipe", "r2_pipe", "ellipse"])
def test_blocked_checks_are_the_whole_array_checks_at_seed_9(pipe, request):
    assert_blocked_checks_are_whole(pipe, 9, request)


def _sizes(total, size):
    return [min(size, total - i) for i in range(0, total, size)]


# the package's block, then one of 7 rays and 7999 tuples, whose last
# blocks are partial: 6 rays and 4012 tuples
@pytest.mark.parametrize("block", [renorm._BLOCK, 7999])
def test_star_norm_checks_evaluate_each_point_once_in_order(block, r2_pipe,
                                                            monkeypatch):
    g = r2_pipe.norm.g
    ext_calls, norm_calls = [], []
    real_build, real_evaluate = renorm.build_phitilde, renorm.StarNorm.evaluate

    def spied_build(g):
        made = real_build(g)

        def evaluate(pts):
            ext_calls.append(np.array(pts))
            return made.evaluate(pts)
        return SimpleNamespace(evaluate=evaluate)

    def spied_evaluate(self, pts):
        norm_calls.append(np.array(pts))
        return real_evaluate(self, pts)

    monkeypatch.setattr(renorm, "_BLOCK", block)
    monkeypatch.setattr(renorm, "build_phitilde", spied_build)
    monkeypatch.setattr(renorm.StarNorm, "evaluate", spied_evaluate)
    assert build_star_norm(g).report == r2_pipe.norm.report
    pts, _, tuples_a, tuples_b, probes = star_norm_draws(g.base.dim)
    # (a): whole rays, every (ray, t) point once, in order
    assert [len(c) for c in ext_calls] == _sizes(1000, block // 1000)
    assert np.array_equal(np.concatenate(ext_calls), pts)
    # (b): N at a and at b on each slice of the tuples in turn
    sizes = _sizes(100_000, block)
    b_calls, rest = norm_calls[:2 * len(sizes)], norm_calls[2 * len(sizes):]
    assert [len(c) for c in b_calls] == [n for n in sizes for _ in "ab"]
    assert np.array_equal(np.concatenate(b_calls[0::2]), tuples_a)
    assert np.array_equal(np.concatenate(b_calls[1::2]), tuples_b)
    # then (c) on N(1, 0) and (d) on the 64 probes at x0 = 0 and at 1e-8
    assert [len(c) for c in rest] == [1, 64, 64]
    assert np.array_equal(rest[0], [[1.0] + [0.0] * g.base.dim])
    for call, x0 in zip(rest[1:], (0.0, 1e-8)):
        assert np.array_equal(call, np.concatenate(
            [np.full((64, 1), x0), probes], axis=-1))


def test_star_norm_working_set(t2_pipe, r2_pipe):
    # (b) reads its tuples slice by slice as rows of their stream: traced
    # peaks of 1.09 MiB on t2 and 1.46 MiB on r2, bounded at about twice
    for pipe, bound_mib in ((t2_pipe, 2.25), (r2_pipe, 3.0)):
        tracemalloc.start()
        try:
            build_star_norm(pipe.norm.g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2 ** 20, (pipe.name, peak)


# -- exact binary-scale equivariance ------------------------------------------------
# Each map below is positively 1-homogeneous, and scaling by 2**k moves no
# rounding: x / |x0| is unchanged, hypot and the gauge's bisection scale
# exactly, and each walk step is N of scaled inputs.  Magnitudes stay in
# 1e-4 .. 1e4 times 2**+-60, clear of subnormals and overflow.

POWERS = st.sampled_from([-60, -7, -1, 1, 3, 5, 60])


def _exactly_scaled(got, ref, k):
    return np.array_equal(_bits(got), _bits(np.ldexp(ref, k)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), POWERS)
def test_star_norm_is_exactly_homogeneous(t2_pipe, t4_pipe, r2_pipe, seed, k):
    rng = np.random.default_rng(seed)
    for norm in (t2_pipe.norm, t4_pipe.norm, r2_pipe.norm):
        pts = slu(rng, (48, norm.dim + 1), 1e-4, 1e4)
        pts[:16, 0] = 0.0                       # the x0 = 0 branch
        for batch in (pts, pts[16:], pts[:16]):  # mixed, x0 != 0, x0 = 0
            assert _exactly_scaled(norm.evaluate(np.ldexp(batch, k)),
                                   norm.evaluate(batch), k)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), POWERS)
def test_gauge_is_exactly_homogeneous(t2_pipe, t4_pipe, r2_pipe, seed, k):
    rng = np.random.default_rng(seed)
    bisected = GaugeSpec(base=_ellipse(4.0), alpha=0.5, M=math.nan)
    for g in (t2_pipe.g, t4_pipe.g, r2_pipe.g, bisected):
        pts = slu(rng, (32, g.base.dim), 1e-4, 1e4)
        assert _exactly_scaled(g.gauge(np.ldexp(pts, k)), g.gauge(pts), k)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), POWERS)
def test_lambda_norm_is_exactly_homogeneous(t2_pipe, t4_pipe, r2_pipe, seed,
                                            k):
    rng = np.random.default_rng(seed)
    for norm in (t2_pipe.norm, t4_pipe.norm, r2_pipe.norm):
        xi = BlockSeq(norm.dim, slu(
            rng, (int(rng.integers(1, 9)), norm.dim), 1e-4, 1e4))
        scaled = xi.scaled(2.0 ** k)
        assert _exactly_scaled(star_iterate(norm, scaled),
                               star_iterate(norm, xi), k)
        assert _exactly_scaled(lambda_norm(norm, scaled),
                               lambda_norm(norm, xi), k)


# -- block sequences --------------------------------------------------------------

def test_blockseq_json_round_trip():
    xi = BlockSeq(1, [[0.3], [0.5]])
    back = BlockSeq.from_json(xi.to_json())
    assert back.dim == 1 and back.n_blocks == 2
    assert np.array_equal(back.blocks, xi.blocks)
    with pytest.raises(ValueError):
        BlockSeq.from_json('{"blocks": [[1.0]]}')
    with pytest.raises(ValueError):
        BlockSeq.from_json('{"n": 2, "blocks": [[1.0]]}')
    with pytest.raises(ValueError):
        BlockSeq(1, [[math.nan]])


@pytest.mark.parametrize("bad", ["1.5", "1.0", "true"])
def test_blockseq_rejects_a_dimension_that_is_not_an_integer(bad):
    with pytest.raises(ValueError, match=r'^"n" must be an integer, got '):
        BlockSeq.from_json(f'{{"n": {bad}, "blocks": [[1.0]]}}')
    with pytest.raises(ValueError, match=r"^block dim must be an integer"):
        BlockSeq(json.loads(bad), [[1.0]])
    assert BlockSeq(np.int64(1), [[1.0]]).dim == 1


def test_blockseq_ops():
    xi = BlockSeq(2, [[1.0, 0.0]])
    assert xi.scaled(3.0).blocks[0, 0] == 3.0
    tail = BlockSeq(2, [[0.0, 1.0]])
    assert xi.extend(tail).n_blocks == 2
    with pytest.raises(ValueError):
        xi.extend(BlockSeq(1, [[1.0]]))


# -- iterated norms ----------------------------------------------------------------

def test_star_iterate_values(t2_pipe):
    n = t2_pipe.norm
    xi = BlockSeq(1, [[0.3], [0.2], [0.4]])
    vals = star_iterate(n, xi)
    assert len(vals) == 3
    assert vals[0] == pytest.approx(n.value(0.0, [0.3]), rel=1e-15)
    assert vals == sorted(vals)                    # nondecreasing
    assert lambda_norm(n, xi) == vals[-1]
    with pytest.raises(ValueError):
        star_iterate(n, BlockSeq(2, [[1.0, 1.0]]))


def test_lambda_norm_empty_and_single(t2_pipe):
    n = t2_pipe.norm
    assert lambda_norm(n, BlockSeq(1, np.zeros((0, 1)))) == 0.0
    b = 0.37
    want = n.g.M * n.g.gauge(np.array([[b]]))[0]
    assert lambda_norm(n, BlockSeq(1, [[b]])) == pytest.approx(want, rel=1e-12)


def test_lambda_norm_zero_blocks_inert(t2_pipe):
    n = t2_pipe.norm
    xi = BlockSeq(1, [[0.3], [0.2]])
    padded = xi.extend(BlockSeq(1, [[0.0], [0.0]]))
    assert lambda_norm(n, padded) == lambda_norm(n, xi)


def test_lambda_norm_homogeneity(t2_pipe):
    n = t2_pipe.norm
    xi = BlockSeq(1, [[0.3], [0.5], [0.1]])
    lam = lambda_norm(n, xi)
    assert lambda_norm(n, xi.scaled(2.0)) == pytest.approx(2.0 * lam,
                                                           rel=1e-12)


def test_match_lambda_norm(t2_pipe):
    n = t2_pipe.norm
    xi = BlockSeq(1, [[0.3], [0.5]])
    hit = match_lambda_norm(n, xi, 0.8)
    assert lambda_norm(n, hit) == pytest.approx(0.8, rel=1e-12)
    zero = match_lambda_norm(n, xi, 0.0)
    assert lambda_norm(n, zero) == 0.0
    with pytest.raises(ValueError):
        match_lambda_norm(n, BlockSeq(1, np.zeros((0, 1))), 1.0)
    with pytest.raises(ValueError):
        match_lambda_norm(n, xi, -1.0)


def _count_walks(monkeypatch):
    """Count calls of renorm._walk, the one walk over block sequences, by
    (sequences, padded length)."""
    calls = []
    walk = renorm._walk

    def counted(norm, blocks):
        calls.append(blocks.shape[:2])
        return walk(norm, blocks)

    monkeypatch.setattr(renorm, "_walk", counted)
    return calls


def test_match_lambda_norm_walks_once(t2_pipe, monkeypatch):
    calls = _count_walks(monkeypatch)
    match_lambda_norm(t2_pipe.norm, BlockSeq(1, [[0.3], [-0.5]]), 0.8)
    assert calls == [(1, 2)]


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_match_lambda_norm_rejects_a_non_finite_target(target, t2_pipe,
                                                       monkeypatch):
    calls = _count_walks(monkeypatch)
    with pytest.raises(ValueError, match=f"got {target!r}"):
        match_lambda_norm(t2_pipe.norm, BlockSeq(1, [[0.3]]), target)
    assert calls == []                # rejected before any walk


def test_prefix_substitution_walks_each_sequence_once(t2_pipe, monkeypatch):
    n = t2_pipe.norm
    u = BlockSeq(1, [[0.6]])
    v = match_lambda_norm(n, BlockSeq(1, [[0.3], [0.4]]), lambda_norm(n, u))
    calls = _count_walks(monkeypatch)
    rep = prefix_substitution_check(n, u, v, BlockSeq(1, [[0.5], [0.2]]))
    assert rep.precondition_ok
    assert calls == [(1, 3), (1, 4)]  # u and v with the tail


def reference_value(norm, x0, block):
    """N(x0, block) at one point in the masked form that the scaled
    extension replaced: |x0| (1 + phitilde(x / |x0|)), and M gauge(x) at
    x0 = 0 behind its own mask."""
    pts = np.concatenate([[float(x0)], np.asarray(block, float)])[None, :]
    x0 = pts[..., 0]
    x = pts[..., 1:]
    ax0 = np.abs(x0)
    out = np.empty(ax0.shape)
    zero = ax0 == 0.0
    if np.any(~zero):
        scaled = x[~zero] / ax0[~zero][..., None]
        with np.errstate(over="ignore"):  # base(1e290) overflows into the
            out[~zero] = ax0[~zero] * (   # gauge branch
                1.0 + build_phitilde(norm.g).evaluate(scaled))
    if np.any(zero):
        out[zero] = norm.g.M * norm.g.gauge(x[zero])
    return float(out[0])


def reference_walk(norm, blocks):
    """The masked form's scalar loop: one reference_value per block."""
    values, prev = [], 0.0
    for row in blocks:
        prev = reference_value(norm, prev, row)
        values.append(prev)
    return values


def scalar_walk(norm, blocks):
    """The scalar loop: one StarNorm.value per block."""
    values, prev = [], 0.0
    for row in blocks:
        prev = norm.value(prev, row)
        values.append(prev)
    return values


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _oracle_sequences(dim):
    """Seeded sequences of 0 to 11 blocks over eight decades, with all-zero
    prefixes, trailing zeros, the empty sequence, and a first value near
    1e-300 followed by a block that sends x / x0 to 1e290."""
    rng = sampling.rng(41, dim)
    seqs = [slu(rng, (int(rng.integers(0, 12)), dim), 1e-4, 1e4)
            for _ in range(60)]
    zero = np.zeros((2, dim))
    seqs[3] = np.concatenate([zero, seqs[3], [[0.5] * dim]])
    seqs[7] = np.concatenate([[[0.5] * dim], seqs[7], zero])
    seqs[11] = np.zeros((3, dim))
    seqs[13] = np.zeros((0, dim))
    tiny = np.zeros((3, dim))
    tiny[0, 0], tiny[1, 0], tiny[2, -1] = 1e-300, 1e-10, 0.5
    seqs[17] = tiny
    return seqs


WALK_RTOL = 4e-15   # walks against the masked form; 1.9e-15 measured


@pytest.fixture(scope="module")
def r2_bisected(r2_pipe):
    """r2's norm with its gauge bisected point by point (unit_scale None),
    built directly: check (a) of build_star_norm is slow on it."""
    g = r2_pipe.g
    return SimpleNamespace(norm=renorm.StarNorm(g=GaugeSpec(g.base, g.alpha,
                                                            g.M)))


@pytest.mark.parametrize("pipe", ["t2_pipe", "t4_pipe", "r2_pipe"])
def test_walk_is_bitwise_the_scalar_loop(pipe, request):
    norm = request.getfixturevalue(pipe).norm
    seqs = _oracle_sequences(norm.dim)
    walks = [scalar_walk(norm, s) for s in seqs]
    for s, walk in zip(seqs, walks):          # B = 1
        got = star_iterate(norm, BlockSeq(norm.dim, s))
        assert np.array_equal(_bits(got), _bits(walk))
        if walk:
            assert lambda_norm(norm, BlockSeq(norm.dim, s)) == max(walk)
        # the masked form: per step from the same v_{j-1}, and whole walks
        prev = [0.0] + walk[:-1]
        ref = np.array([reference_value(norm, v, row)
                        for v, row in zip(prev, s)])
        assert np.all(np.abs(np.array(walk) - ref) <= 1e-15 * ref)
        ref = np.array(reference_walk(norm, s))
        assert np.all(np.abs(np.array(walk) - ref) <= WALK_RTOL * ref)
    # one batch: rows with x0 = 0 at a step sit between rows without, and
    # every shorter row walks on through its zero padding
    blocks, lengths = renorm._pad(seqs, norm.dim)
    values = renorm._walk(norm, blocks)
    for row, n, walk in zip(values, lengths, walks):
        last = walk[-1] if walk else 0.0
        assert np.array_equal(_bits(row[:n]), _bits(walk))
        assert np.array_equal(_bits(row[n:]), _bits([last] * (len(row) - n)))


def test_bisected_walk_is_bitwise_the_scalar_loop(r2_bisected):
    # the oracle's sequences under a gauge that is solved, not |x| * c: a
    # walk of one sequence and the batched walk are StarNorm.value's loop
    norm = r2_bisected.norm
    seqs = _oracle_sequences(norm.dim)
    walks = [scalar_walk(norm, s) for s in seqs]
    for s, walk in zip(seqs, walks):
        got = star_iterate(norm, BlockSeq(norm.dim, s))
        assert np.array_equal(_bits(got), _bits(walk))
    blocks, lengths = renorm._pad(seqs, norm.dim)
    for row, n, walk in zip(renorm._walk(norm, blocks), lengths, walks):
        assert np.array_equal(_bits(row[:n]), _bits(walk))


@pytest.mark.parametrize("pipe", ["t2_pipe", "r2_pipe", "r2_bisected"])
def test_one_walk_gauges_every_block_at_once(pipe, request, monkeypatch):
    # one sequence of k blocks: k base evaluations on (1, n) slices and one
    # gauge call on all k blocks, whichever steps fall outside
    norm = request.getfixturevalue(pipe).norm
    g = norm.g
    blocks = slu(sampling.rng(43), (12, norm.dim), 1e-3, 1e3)
    want = star_iterate(norm, BlockSeq(norm.dim, blocks))
    shapes, gauged = [], []
    real = GaugeSpec.gauge

    def base(pts):
        shapes.append(pts.shape)
        return g.base.evaluate(pts)

    def recorded(self, pts):
        gauged.append(np.array(pts))
        start = len(shapes)
        out = real(self, pts)
        del shapes[start:]        # the evaluations of a gauge's bisection
        return out

    spied = renorm.StarNorm(g=GaugeSpec(YoungMap(dim=norm.dim, fn=base),
                                        g.alpha, g.M, g.unit_scale))
    monkeypatch.setattr(GaugeSpec, "gauge", recorded)
    got = star_iterate(spied, BlockSeq(norm.dim, blocks))
    assert np.array_equal(_bits(got), _bits(want))
    assert shapes == [(1, norm.dim)] * len(blocks)
    assert len(gauged) == 1 and np.array_equal(gauged[0], blocks)


@pytest.mark.parametrize("pipe, blocks", [
    ("t2_pipe", [[1e308], [1e308]]),    # v_2 = N(1.41e308, 1e308) overflows
])
def test_walk_past_the_double_range_raises(pipe, blocks, request):
    norm = request.getfixturevalue(pipe).norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericSignal,
                           match=r"from block 1 on, in rows \[0\] of 1"):
            lambda_norm(norm, BlockSeq(1, blocks))
        batch = np.array([[[0.5], [0.25]], blocks, [[2.0], [0.0]], blocks])
        with pytest.raises(NumericSignal,
                           match=r"from block 1 on, in rows \[1, 3\] of 4"):
            renorm._walk(norm, batch)


@pytest.mark.parametrize("pipe", ["t2_pipe", "t4_pipe", "r2_pipe"])
def test_walk_stays_finite_where_the_ratio_overflows(pipe, request,
                                                     monkeypatch):
    # v_2 = N(v_1, 1e200 e1) with v_1 near 1e-200: x / x0 overflows to inf,
    # which takes the outside branch, so v_2 = M gauge(e1) 1e200 + O(v_1)
    norm = request.getfixturevalue(pipe).norm
    g = norm.g
    blocks = np.zeros((2, norm.dim))
    blocks[:, 0] = 1e-200, 1e200
    want = g.M * g.unit_scale * 1e200
    wide = sampling.signed_log_uniform
    monkeypatch.setattr(sampling, "signed_log_uniform",
                        lambda u_mag, u_sign, lo, hi: wide(u_mag, u_sign,
                                                           1e-200, 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lambda_norm(norm, BlockSeq(norm.dim, blocks)) == pytest.approx(
            want, rel=1e-15)
        batch = np.stack([blocks, blocks[::-1]])
        assert np.all(renorm._walk(norm, batch)[:, 1] == pytest.approx(
            want, rel=1e-15))
        assert math.isfinite(norm.value(1e-200, blocks[1]))
        # sums of pairs spanning 1e-200 .. 1e200 in every coordinate
        assert triangle_violation(norm, 2000, 5) <= 1e-10


@pytest.mark.parametrize("pipe", ["t4_pipe", "r2_pipe"])
def test_match_lambda_norm_accuracy(pipe, request):
    norm = request.getfixturevalue(pipe).norm
    for k in range(20):
        rng = sampling.rng(17, k)
        xi = BlockSeq(norm.dim, slu(
            rng, (int(rng.integers(1, 5)), norm.dim), 1e-2, 10.0))
        target = float(10.0 ** (-2.0 + 4.0 * rng.random()))
        got = lambda_norm(norm, match_lambda_norm(norm, xi, target))
        assert abs(got - target) <= 1e-12 * max(1.0, target)


# -- the sufficiency inequality ------------------------------------------------------

def test_suff_criterion_holds(t2_pipe):
    n = t2_pipe.norm
    xi = BlockSeq(1, [[0.3], [0.2], [0.4]])
    rep = suff_criterion_check(n, t2_pipe.phitilde, xi)
    assert rep.ok
    assert rep.checked == 2
    assert rep.min_margin >= -1e-9
    assert len(rep.values) == 3 and len(rep.log_products) == 3
    assert rep.log_products[0] == pytest.approx(
        math.log1p(float(t2_pipe.phitilde.evaluate(np.array([[0.3]]))[0])))


def test_suff_criterion_empty_is_vacuous(t2_pipe, r2_pipe):
    # phi.evaluate of a (0, dim) array is empty, for the closed-form gauge
    # of the pipelines and for the bisected one
    for pipe in (t2_pipe, r2_pipe):
        dim = pipe.norm.dim
        g = pipe.g
        bisected = GaugeSpec(base=g.base, alpha=g.alpha, M=g.M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = suff_criterion_check(pipe.norm, pipe.phitilde,
                                       BlockSeq(dim, []))
            assert bisected.gauge(np.zeros((0, dim))).shape == (0,)
        assert rep.ok and rep.checked == 0
        assert rep.min_margin == math.inf
        assert rep.values == [] and rep.log_products == []


def test_suff_criterion_dimension_check(t2_pipe):
    with pytest.raises(ValueError):
        suff_criterion_check(t2_pipe.norm, radial_power(2, 2.0),
                             BlockSeq(1, [[0.5]]))


def _draws(dim, n, key):
    """n seeded sequences of 1 to 4 blocks each."""
    rng = sampling.rng(key, dim)
    return [slu(rng, (int(rng.integers(1, 5)), dim), 1e-2, 10.0)
            for _ in range(n)]


@pytest.mark.parametrize("pipe", ["t2_pipe", "t4_pipe", "r2_pipe"])
def test_suff_margins_are_the_per_sequence_checks(pipe, request,
                                                  monkeypatch):
    p = request.getfixturevalue(pipe)
    norm = p.norm
    seqs = _draws(norm.dim, 40, 5)
    targets = np.linspace(0.05, 0.99, 40)
    calls = _count_walks(monkeypatch)
    batch = suff_margins(norm, p.phitilde, seqs, targets)
    assert [c[0] for c in calls] == [40, 40]      # two walks for the batch
    singles = [suff_margins(norm, p.phitilde, [s], [t])
               for s, t in zip(seqs, targets)]
    assert np.array_equal(_bits(batch), _bits(np.concatenate(singles)))
    for s, t, one in zip(seqs, targets, singles):
        rep = suff_criterion_check(norm, p.phitilde, match_lambda_norm(
            norm, BlockSeq(norm.dim, s), float(t)))
        assert rep.checked == one.size
        assert rep.min_margin == one.min(initial=math.inf)


def test_suff_margins_rejects_bad_input(t2_pipe, monkeypatch):
    calls = _count_walks(monkeypatch)
    with pytest.raises(ValueError, match="got nan"):
        suff_margins(t2_pipe.norm, t2_pipe.phitilde,
                     [np.array([[0.3]]), np.array([[0.2]])], [0.5, math.nan])
    with pytest.raises(ValueError, match="phi dimension"):
        suff_margins(t2_pipe.norm, radial_power(2, 2.0),
                     [np.array([[0.3]])], [0.5])
    assert calls == []


# -- prefix substitution ---------------------------------------------------------------

def test_substitution_identical_prefixes(t2_pipe):
    n = t2_pipe.norm
    u = BlockSeq(1, [[0.4], [0.2]])
    tail = BlockSeq(1, [[0.3]])
    rep = prefix_substitution_check(n, u, u, tail)
    assert rep.precondition_ok and rep.ok
    assert rep.difference == 0.0


def test_substitution_matched_prefixes(t2_pipe):
    n = t2_pipe.norm
    u = BlockSeq(1, [[0.6]])
    w = match_lambda_norm(n, BlockSeq(1, [[0.3], [0.4]]), lambda_norm(n, u))
    rep = prefix_substitution_check(n, u, w, BlockSeq(1, [[0.5], [0.2]]))
    assert rep.precondition_ok
    assert rep.ok
    assert rep.difference <= 1e-9


def test_substitution_mismatch_reported(t2_pipe):
    n = t2_pipe.norm
    rep = prefix_substitution_check(n, BlockSeq(1, [[0.6]]),
                                    BlockSeq(1, [[0.9]]),
                                    BlockSeq(1, [[0.1]]))
    assert not rep.precondition_ok
    assert "differ" in rep.reason
    assert not rep.ok


@pytest.mark.parametrize("pipe", ["t2_pipe", "t4_pipe", "r2_pipe"])
def test_substitution_differences_are_the_per_triple_checks(pipe, request,
                                                            monkeypatch):
    norm = request.getfixturevalue(pipe).norm
    us, vs, tails = (_draws(norm.dim, 30, key) for key in (1, 2, 3))
    calls = _count_walks(monkeypatch)
    diffs, reason = substitution_differences(norm, us, vs, tails)
    # every u + tail beside every v, then every matched v + tail
    assert [c[0] for c in calls] == [60, 30]
    assert reason == ""
    monkeypatch.undo()
    want = []
    for u, v, tail in zip(us, vs, tails):
        u, v, tail = (BlockSeq(norm.dim, b) for b in (u, v, tail))
        v = match_lambda_norm(norm, v, lambda_norm(norm, u))
        rep = prefix_substitution_check(norm, u, v, tail)
        assert rep.precondition_ok
        want.append(rep.difference)
    assert np.array_equal(_bits(diffs), _bits(want))


def test_batched_checks_reject_malformed_batches(t2_pipe, monkeypatch):
    norm, phi = t2_pipe.norm, t2_pipe.phitilde
    one, two = np.array([[0.3]]), np.array([[0.3, 0.1]])
    calls = _count_walks(monkeypatch)
    with pytest.raises(ValueError, match="rows of length 1"):
        suff_margins(norm, phi, [one, two], [0.5, 0.5])
    with pytest.raises(ValueError, match="rows of length 1"):
        substitution_differences(norm, [one], [two], [one])
    with pytest.raises(ValueError, match="same length"):
        substitution_differences(norm, [one, one], [one, one], [one])
    assert calls == []


def test_substitution_verdict_names_the_first_failing_triple():
    lam = np.array([0.5, 0.5, 0.5])
    whole = np.array([0.7, 0.7, 0.7])
    yes = np.array([True, True, True])
    walk_u = (lam, np.array([True, False, True]), whole)
    walk_v = (np.array([0.5, 0.5, 0.6]), yes, whole)
    assert renorm._substitution_verdict(walk_u, walk_v)[3] == (
        "prefix u does not attain its norm at its last block")
    walk_u = (lam, yes, whole)
    assert renorm._substitution_verdict(walk_u, walk_v)[3] == (
        "prefix norms differ: 0.5 vs 0.6")
    walk_v = (lam, np.array([True, True, False]), whole)
    assert renorm._substitution_verdict(walk_u, walk_v)[3] == (
        "prefix v does not attain its norm at its last block")
    assert renorm._substitution_verdict(walk_u, (lam, yes, whole))[3] == ""


# -- pipelines ---------------------------------------------------------------------------

PIPELINE_REPORTS = {   # frozen at the default seed 1234
    "t2-pipeline": {
        "M": 1.000000000001, "N_unit": 1.0, "alpha": 0.5,
        "decreasing_max_step": -9.915306437045962e-09, "decreasing_ok": True,
        "limit_gap": 3.268389966931856e-07,
        "monotone_max_violation": -8.246362363310337e-09, "seed": 1234,
    },
    "t4-pipeline": {
        "M": 1.000000000001, "N_unit": 1.0, "alpha": 0.25,
        "decreasing_max_step": -4.9576541194987044e-09, "decreasing_ok": True,
        "limit_gap": 1.634194983465928e-07,
        "monotone_max_violation": -4.1232038037180656e-09, "seed": 1234,
    },
    "r2-pipeline": {
        "M": 1.0000000000842668, "N_unit": 1.0, "alpha": 0.5,
        "decreasing_max_step": -9.915306279211158e-09, "decreasing_ok": True,
        "limit_gap": 1.8265927012435677e-07,
        "monotone_max_violation": -1.6759444048451249e-09, "seed": 1234,
    },
}


@pytest.mark.parametrize("pipe", ["t2_pipe", "t4_pipe", "r2_pipe"])
def test_pipeline_reports_are_pinned(pipe, request):
    built = request.getfixturevalue(pipe)
    assert built.norm.report == PIPELINE_REPORTS[built.name]


def test_build_pipeline_names(t2_pipe):
    assert t2_pipe.name == "t2-pipeline"
    with pytest.raises(ValueError):
        build_pipeline("t9-pipeline")
