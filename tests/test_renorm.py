import math
import warnings

import numpy as np
import pytest
from scipy.optimize import elementwise

from twistnorm import (BlockSeq, GaugeSpec, NumericSignal, YoungMap,
                       build_phitilde, build_pipeline, build_star_norm,
                       lambda_norm, level_constant, match_lambda_norm,
                       prefix_substitution_check, radial_power, select_alpha,
                       star_iterate, suff_criterion_check, triangle_violation)
from twistnorm import renorm, sampling

SQRT2 = math.sqrt(2.0)


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
        pts = sampling.signed_log_uniform(sampling.rng(13), (2000, g.base.dim),
                                          1e-6, 1e6)
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
        [sampling.signed_log_uniform(sampling.rng(13), (2000, 2), 1e-6, 1e6)]
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
                        0.0625, 0.12500000000737013),
    "tenth-square-d2": (lambda: _convex(2, lambda p: 0.1 * np.sum(p * p, -1)),
                        0.0625, 0.12500000001067177),
    "square-d1": (lambda: radial_power(1, 2.0), 0.5, 1.0000000000349558),
    "cube-d1": (lambda: radial_power(1, 3.0), 0.25, 0.75000000002136),
    "quartic-d1": (lambda: radial_power(1, 4.0), 0.25, 1.0000000000251428),
    "cosh-d1": (lambda: _convex(1, lambda p: np.cosh(p[..., 0]) - 1.0),
                0.25, 0.5198603854156927),
    "square-d2": (lambda: radial_power(2, 2.0), 0.5, 1.0000000000860216),
    "sixth-d2": (lambda: radial_power(2, 6.0), 0.125, 0.7500000000692207),
    "ellipse-d2": (lambda: _convex(2, lambda p: p[..., 0] ** 2
                                   + 4.0 * p[..., 1] ** 2),
                   0.5, 1.0000000000645783),
    "max-square-d2": (lambda: _convex(2, lambda p: np.max(np.abs(p), -1) ** 2),
                      0.25, 0.5000005000033169),
    "l1-square-d2": (lambda: _convex(2, lambda p: np.sum(np.abs(p), -1) ** 2),
                     0.5, 1.000000000035456),
    "square-quartic-d2": (lambda: _convex(2, lambda p: p[..., 0] ** 2
                                          + p[..., 1] ** 4),
                          0.25, 1.0000000000251428),
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


def test_select_alpha_steep_base_raises():
    # 1e30 t^2 puts the unit gauge sphere at 1e-15, inside the 1e-4 ball
    steep = YoungMap(dim=1, fn=lambda p: 1e30 * p[..., 0] ** 2,
                     radially_monotone=True, convex=True)
    with pytest.raises(NumericSignal, match="1e-4 ball"):
        select_alpha(steep)


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
    wide = sampling.signed_log_uniform(rng, (4000, g.base.dim), 1e-6, 1e6)
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
    pts = sampling.signed_log_uniform(sampling.rng(12), (3000, g.base.dim),
                                      1e-3, 1e3)
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
    # a non-convex extension cannot pass the decreasing-bullet certificate
    base = radial_power(1, 2.0)
    g = GaugeSpec(base=base, alpha=0.5, M=1.0, unit_scale=SQRT2)
    wobble = YoungMap(dim=1, fn=lambda p: p[..., 0] ** 2 *
                      (1.0 + 0.2 * np.sin(5.0 * p[..., 0])),
                      radially_monotone=True, convex=False)
    with pytest.raises(NumericSignal):
        build_star_norm(wobble, g)


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
    """Count calls of renorm.star_iterate, the one walk over a sequence."""
    calls = []
    walk = renorm.star_iterate

    def counted(norm, xi):
        calls.append(xi.n_blocks)
        return walk(norm, xi)

    monkeypatch.setattr(renorm, "star_iterate", counted)
    return calls


def test_match_lambda_norm_walks_once(t2_pipe, monkeypatch):
    calls = _count_walks(monkeypatch)
    match_lambda_norm(t2_pipe.norm, BlockSeq(1, [[0.3], [-0.5]]), 0.8)
    assert len(calls) == 1


def test_prefix_substitution_walks_each_sequence_once(t2_pipe, monkeypatch):
    n = t2_pipe.norm
    u = BlockSeq(1, [[0.6]])
    v = match_lambda_norm(n, BlockSeq(1, [[0.3], [0.4]]), lambda_norm(n, u))
    calls = _count_walks(monkeypatch)
    rep = prefix_substitution_check(n, u, v, BlockSeq(1, [[0.5], [0.2]]))
    assert rep.precondition_ok
    assert calls == [3, 4]            # u and v with the tail


@pytest.mark.parametrize("pipe", ["t4_pipe", "r2_pipe"])
def test_match_lambda_norm_accuracy(pipe, request):
    norm = request.getfixturevalue(pipe).norm
    for k in range(20):
        rng = sampling.rng(17, k)
        xi = BlockSeq(norm.dim, sampling.signed_log_uniform(
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
    assert len(rep.values) == 3 and len(rep.products) == 3
    assert rep.products[0] == pytest.approx(
        1.0 + float(t2_pipe.phitilde.evaluate(np.array([[0.3]]))[0]))


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
        assert rep.values == [] and rep.products == []


def test_suff_criterion_dimension_check(t2_pipe):
    with pytest.raises(ValueError):
        suff_criterion_check(t2_pipe.norm, radial_power(2, 2.0),
                             BlockSeq(1, [[0.5]]))


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


# -- pipelines ---------------------------------------------------------------------------

PIPELINE_REPORTS = {   # frozen at the default seed 1234
    "t2-pipeline": {
        "M": 1.0000000000349558, "N_unit": 1.0, "alpha": 0.5,
        "decreasing_max_step": -9.915306436709281e-09, "decreasing_ok": True,
        "limit_gap": 2.924562555283025e-07,
        "monotone_max_violation": -7.619331369515921e-09, "seed": 1234,
    },
    "t4-pipeline": {
        "M": 1.0000000000251428, "N_unit": 1.0, "alpha": 0.25,
        "decreasing_max_step": -4.957654276388231e-09, "decreasing_ok": True,
        "limit_gap": 1.4622812786705237e-07,
        "monotone_max_violation": -3.809705906174871e-09, "seed": 1234,
    },
    "r2-pipeline": {
        "M": 1.0000000000860216, "N_unit": 1.0, "alpha": 0.5,
        "decreasing_max_step": -9.915306436202947e-09, "decreasing_ok": True,
        "limit_gap": 9.102751067241207e-08,
        "monotone_max_violation": -5.564150187551304e-09, "seed": 1234,
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
