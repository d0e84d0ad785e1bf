import math

import numpy as np
import pytest

from twistnorm import (BlockSeq, GaugeSpec, NumericSignal, YoungMap,
                       build_phitilde, build_pipeline, build_star_norm,
                       lambda_norm, level_constant, match_lambda_norm,
                       minkowski_gauge, prefix_substitution_check,
                       radial_power, select_alpha, star_iterate,
                       suff_criterion_check, triangle_violation)
from twistnorm import renorm, sampling
from twistnorm.renorm import _alpha_ceiling, _tau

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
    assert minkowski_gauge(g, [1.0]) == pytest.approx(SQRT2, rel=1e-12)
    assert minkowski_gauge(g, [0.0]) == 0.0
    assert minkowski_gauge(g, [-3.0]) == pytest.approx(3.0 * SQRT2, rel=1e-12)
    # exactly 1 on the level set
    x = 1.0 / SQRT2
    assert minkowski_gauge(g, [x]) == pytest.approx(1.0, rel=1e-12)


def test_gauge_bisection_matches_closed_form(t2_pipe):
    base = t2_pipe.base
    slow = GaugeSpec(base=base, alpha=0.5, M=1.0, unit_scale=None)
    pts = np.array([[0.3], [-1.7], [4.0]])
    fast = t2_pipe.g.gauge(pts)
    assert np.allclose(slow.gauge(pts), fast, rtol=1e-10)


def test_gauge_dimension_check(t2_pipe):
    with pytest.raises(ValueError):
        minkowski_gauge(t2_pipe.g, [1.0, 2.0])


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


def test_quartic_ray_geometry():
    base = radial_power(1, 4.0)
    # the argmin of a smooth flat-bottomed expression is only sqrt(eps) sharp
    tau = _tau(base, np.array([[0.5], [-0.5]]))
    assert tau == pytest.approx([(16.0 / 3.0) ** 0.25] * 2, rel=1e-7)
    assert _alpha_ceiling(base, 8) == pytest.approx(1.0 / 3.0, rel=1e-6)


@pytest.mark.parametrize("dim", [1, 2])
def test_square_ray_minimum_is_the_cap(dim):
    # (1 + t^2 / 4) / t decreases up to t = 2 = 1 / ||y||: every ray is capped
    y = 0.5 * renorm._sphere_dirs(dim, 720)
    tau = _tau(radial_power(dim, 2.0), y)
    assert np.array_equal(tau, 1.0 / np.linalg.norm(y, axis=-1))


def test_ray_minimum_below_the_grid_raises():
    # (1 + 1e30 t^2 / 4) / t is least at t = 2e-15, below the 2e-8 grid floor;
    # the true ceiling is 1, and the grid endpoint would report 1e14
    steep = YoungMap(dim=1, fn=lambda p: 1e30 * p[..., 0] ** 2,
                     radially_monotone=True, convex=True)
    with pytest.raises(NumericSignal, match="below"):
        _alpha_ceiling(steep, 8)
    with pytest.raises(NumericSignal):
        select_alpha(steep)


def test_ray_refinement_failure_raises(monkeypatch):
    real = renorm.find_minimum

    def one_step(*args, **kwargs):
        return real(*args, **kwargs, maxiter=1)

    monkeypatch.setattr(renorm, "find_minimum", one_step)
    with pytest.raises(NumericSignal, match="did not converge"):
        _tau(radial_power(1, 4.0), np.array([[0.5]]))


def test_select_alpha_radial(r2_pipe):
    assert r2_pipe.g.alpha == 0.5
    assert r2_pipe.g.M == pytest.approx(1.0, abs=1e-8)


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
    same = (g.gauge(pts) <= 1.0) == (g.base.evaluate(pts) <= g.alpha)
    assert same[:4000].all() and not same.all()
    assert np.array_equal(got[same], want[same])
    # the branch tests disagree only on the seam, where the gauge's 1e-12
    # bisection width, magnified p times by a base of degree p, bounds the gap
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
    want = n.g.M * minkowski_gauge(n.g, [b])
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
    assert calls == [1, 2, 3, 4]      # u, v, then u and v with the tail


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


def test_suff_criterion_empty_is_vacuous(t2_pipe):
    rep = suff_criterion_check(t2_pipe.norm, t2_pipe.phitilde,
                               BlockSeq(1, np.zeros((0, 1))))
    assert rep.ok and rep.checked == 0
    assert rep.min_margin == math.inf


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

def test_build_pipeline_names(t2_pipe):
    assert t2_pipe.name == "t2-pipeline"
    with pytest.raises(ValueError):
        build_pipeline("t9-pipeline")
