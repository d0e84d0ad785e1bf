import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from twistnorm import (GridMap, NumericSignal, YoungMap, certify,
                       convex_envelope, extend, identity_theta,
                       kalton_peck_map, kp_theoretical_bound, mollify, power,
                       power_log, quasiconvexity_constant, radial_power,
                       soft_clip_theta)
from twistnorm.youngmap import _grid_axes, _ratio

# frozen expected values
KP_BOUND_Z2 = 7.3307290635716065          # max(1 + 2 + 8 * 4/e^2, 4)
WITNESS_RATIO = 1.1761861673929657        # midpoint ratio at the pair below
DOUBLE_WELL_ENV_AT_1 = 7.0 / 16.0         # chord from x^2 at 1/4 to well at 9/4


def double_well():
    return lambda_map(lambda t: np.minimum(t ** 2, (np.abs(t) - 2.0) ** 2 + 1.0))


def lambda_map(scalar_fn):
    from twistnorm import YoungMap
    return YoungMap(dim=1, fn=lambda pts: scalar_fn(pts[..., 0]),
                    radially_monotone=False, label="test map")


# -- theta shapes -------------------------------------------------------------

def test_theta_kinds():
    t = np.linspace(-3, 3, 13)
    assert np.array_equal(identity_theta().value(t), t)
    c = soft_clip_theta(0.7)
    assert np.allclose(c.value(t), 0.7 * np.tanh(t / 0.7))
    assert np.all(np.abs(c.value(t * 100)) <= 0.7 + 1e-15)


def test_theta_validation():
    for b in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            soft_clip_theta(b)


# -- the twisted two-variable map ---------------------------------------------

@pytest.mark.parametrize("theta", [identity_theta(), soft_clip_theta(1.0)],
                         ids=["identity", "soft-clip"])
def test_kp_map_reads_only_values(f2, theta):
    # certified constants enter only the bound, never Phi itself
    pts = np.random.default_rng(11).standard_normal((512, 2)) * 3.0
    assert np.array_equal(kalton_peck_map(power(2.0), theta)(pts),
                          kalton_peck_map(f2, theta)(pts))


def _kp_first_formula(f, theta, pts):
    """Phi as first written: f(y) + f(x - y theta(-log|y|)), no shift at 0."""
    x, y = pts[..., 0], pts[..., 1]
    ay = np.abs(y)
    shift = np.zeros_like(y)
    nz = ay > 0
    shift[nz] = y[nz] * theta.value(-np.log(ay[nz]))
    return f.value(y) + f.value(x - shift)


@pytest.mark.parametrize("theta", [identity_theta(), soft_clip_theta(0.5)],
                         ids=["identity", "soft-clip"])
def test_kp_map_matches_its_first_formula_bitwise(theta):
    # twist(y, 1) takes log 1 - log|y|, which is -log|y| exactly
    rng = np.random.default_rng(15)
    pts = np.concatenate([
        rng.standard_normal((100_000, 2)) * 3.0,
        np.sign(rng.standard_normal((100_000 - 25, 2)))
        * 10.0 ** rng.uniform(-300.0, 3.0, (100_000 - 25, 2)),
        list(itertools.product([0.0, 1.0, -2.5, 5e-324, -1e3],
                               [0.0, 1.0, -1.0, 5e-324, -5e-324])),
    ])
    pts[::7, 0] = 0.0
    assert len(pts) == 200_000
    f = power(2.0)
    assert np.array_equal(kalton_peck_map(f, theta)(pts),
                          _kp_first_formula(f, theta, pts))


def test_kp_anchor_values(f2):
    kp = kalton_peck_map(f2, identity_theta())
    assert kp([[1.0, 0.0]])[0] == 1.0
    assert kp([[2.0, 0.0]])[0] == 4.0
    assert kp([[0.0, 1.0]])[0] == 1.0
    assert kp([[0.0, 0.0]])[0] == 0.0
    expected = 0.25 + (0.5 * math.log(2.0)) ** 2
    assert kp([[0.0, 0.5]])[0] == pytest.approx(expected, rel=1e-15)
    # x-section at y = 0 is the scalar function itself
    x = np.linspace(-3, 3, 31)
    pts = np.stack([x, np.zeros_like(x)], axis=-1)
    assert np.array_equal(kp(pts), f2.value(x))


def test_kp_evenness_exact(f2):
    kp = kalton_peck_map(f2, identity_theta())
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((256, 2)) * 3.0
    assert np.array_equal(kp(pts), kp(-pts))


def test_kp_nonconvex_witness(f2):
    kp = kalton_peck_map(f2, identity_theta())
    t1 = np.array([-0.5, 0.05])
    t2 = np.array([-0.5, 0.55])
    r = float(_ratio(kp, t1[None], t2[None], np.array([0.5]))[0])
    assert r == pytest.approx(WITNESS_RATIO, rel=1e-12)
    assert r > 1.0


def test_kp_theoretical_bound_value(f2):
    assert kp_theoretical_bound(f2.constants, identity_theta()) == \
        pytest.approx(KP_BOUND_Z2, rel=1e-15)


# exact bounds; f's scale constant C_K at theta's K is 1 for every f, so
# both theta kinds give the same value
KP_BOUNDS = {
    "power(1.5)": (lambda: power(1.5), 1.5, 5.693543793907976),
    "power(2)": (lambda: power(2.0), 2.0, 7.3307290635716065),
    "power(3)": (lambda: power(3.0), 3.0, 16.0),
    "power_log(2)": (lambda: power_log(2.0), 2.0, 11.853681255141948),
    "extend(power_log(1.5), 2)": (lambda: extend(power_log(1.5), 2.0), 1.5,
                                  12.275346577873464),
}


@pytest.mark.parametrize("name", list(KP_BOUNDS))
def test_kp_theoretical_bound_is_pinned(name):
    make, p, expected = KP_BOUNDS[name]
    constants = certify(make(), p).constants
    for theta in (identity_theta(), soft_clip_theta(0.5)):
        assert kp_theoretical_bound(constants, theta) == expected


def test_quasiconvexity_certificate(f2):
    kp = kalton_peck_map(f2, identity_theta())
    res = quasiconvexity_constant(kp, trials=50_000, rng_seed=7)
    bound = kp_theoretical_bound(f2.constants, identity_theta())
    assert 1.0 < res.l_hat <= bound + 1e-9
    again = quasiconvexity_constant(kp, trials=50_000, rng_seed=7)
    assert again.l_hat == res.l_hat
    rep = res.witness_report()
    assert set(rep) == {"t1", "t2", "lambda"}
    with pytest.raises(ValueError):
        quasiconvexity_constant(kp, trials=0, rng_seed=1)


def test_quasiconvexity_of_convex_map_is_one():
    m = radial_power(2, 2.0)
    res = quasiconvexity_constant(m, trials=20_000, rng_seed=5)
    assert res.l_hat == pytest.approx(1.0, abs=1e-9)


# -- envelopes ----------------------------------------------------------------

def test_envelope_double_well_oracle():
    grid = convex_envelope(double_well(), 3.0, 49)
    i = int(np.argmin(np.abs(grid.nodes[:, 0] - 1.0)))
    assert grid.nodes[i, 0] == pytest.approx(1.0)
    assert grid.envelope[i] == pytest.approx(DOUBLE_WELL_ENV_AT_1, abs=1e-9)
    assert grid.support_max <= 2
    assert np.all(grid.envelope <= grid.values + 1e-9)


def test_envelope_of_convex_map_is_identity():
    grid = convex_envelope(radial_power(2, 2.0), 2.0, 15)
    assert np.allclose(grid.envelope, grid.values, atol=1e-8)
    assert grid.ratio_max <= 1.0 + 1e-6
    # corners always support themselves
    assert grid.envelope[0] == pytest.approx(grid.values[0], rel=1e-9)


def test_envelope_support_caratheodory(f2):
    kp = kalton_peck_map(f2, identity_theta())
    grid = convex_envelope(kp, 2.0, 13)
    assert grid.support_max <= 3          # dim + 1


def test_envelope_grid_validation():
    m = radial_power(1, 2.0)
    with pytest.raises(ValueError):
        convex_envelope(m, 2.0, 10)      # even
    with pytest.raises(ValueError):
        convex_envelope(m, 2.0, 7)       # too coarse
    with pytest.raises(ValueError):
        convex_envelope(m, -1.0, 11)     # bad box


def test_envelope_csv_round_trip(tmp_path):
    grid = convex_envelope(radial_power(1, 2.0), 1.0, 9)
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,value,envelope"
    assert len(lines) == 1 + 9
    row = lines[1].split(",")
    assert float(row[0]) == pytest.approx(-1.0)


def lp_envelope(m, halfwidth, resolution):
    """Reference envelope: one LP per node over convex weights on all nodes."""
    axes = _grid_axes(m.dim, halfwidth, resolution)
    nodes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                     axis=-1)
    values = m.evaluate(nodes)
    A_eq = np.vstack([nodes.T, np.ones((1, len(nodes)))])
    env = np.empty(len(nodes))
    support_max = 0
    for i, node in enumerate(nodes):
        res = linprog(values, A_eq=A_eq, b_eq=np.append(node, 1.0),
                      bounds=(0.0, None), method="highs-ds")
        assert res.success
        env[i] = res.fun
        support_max = max(support_max, int(np.count_nonzero(res.x > 1e-8)))
    env = np.minimum(np.maximum(env, 0.0), values)
    active = env > 1e-12
    return env, support_max, float((values[active] / env[active]).max())


@pytest.mark.parametrize("case", ["kp-z2", "kp-softclip:2,1", "double-well",
                                  "radial_power(2,2)"])
def test_envelope_hull_matches_lp_oracle(case, f2):
    m, halfwidth, resolution = {
        "kp-z2": (kalton_peck_map(f2, identity_theta()), 2.0, 13),
        "kp-softclip:2,1": (kalton_peck_map(f2, soft_clip_theta(1.0)), 2.0, 9),
        "double-well": (double_well(), 3.0, 49),
        "radial_power(2,2)": (radial_power(2, 2.0), 2.0, 15),
    }[case]
    grid = convex_envelope(m, halfwidth, resolution)
    env, _, ratio_max = lp_envelope(m, halfwidth, resolution)
    assert np.max(np.abs(grid.envelope - env)) <= 1e-10
    assert grid.support_max <= m.dim + 1
    assert grid.ratio_max == pytest.approx(ratio_max, rel=1e-12)


def test_envelope_of_cospherical_lattice_is_identity():
    # lattice points of |x|^2 are cospherical: Qhull's triangulated lower
    # hull has zero-volume simplices and ties, which must not leak out
    grid = convex_envelope(radial_power(3, 2.0), 2.0, 9)
    assert np.max(np.abs(grid.envelope - grid.values)) <= 1e-12
    assert grid.support_max == 1


@pytest.mark.parametrize("dim", [1, 2])
def test_envelope_of_flat_map_raises(dim):
    zero = YoungMap(dim=dim, fn=lambda pts: np.zeros(pts.shape[:-1]),
                    label="zero map")
    shape = "x".join(["9"] * dim)
    with pytest.raises(NumericSignal, match=f"zero map on the {shape} grid"):
        convex_envelope(zero, 1.0, 9)


def searchsorted_interp(gm, pts):
    """Reference multilinear interpolation locating cells by searchsorted."""
    idx, frac = [], []
    for i, ax in enumerate(gm.axes):
        j = np.clip(np.searchsorted(ax, pts[:, i], side="right") - 1,
                    0, ax.size - 2)
        idx.append(j)
        frac.append((pts[:, i] - ax[j]) / (ax[j + 1] - ax[j]))
    out = np.zeros(len(pts))
    for corner in itertools.product((0, 1), repeat=gm.dim):
        w = np.ones(len(pts))
        for i, hi in enumerate(corner):
            w = w * (frac[i] if hi else 1.0 - frac[i])
        out += w * gm.table[tuple(j + hi for j, hi in zip(idx, corner))]
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_interp_matches_searchsorted(dim):
    rng = np.random.default_rng(11 + dim)
    axes = _grid_axes(dim, np.linspace(1.7, 2.3, dim), 11)
    gm = GridMap(axes=axes, table=0.5 + rng.random((11,) * dim))
    hw = gm.halfwidth
    nodes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                     axis=-1)
    faces = hw * (2.0 * rng.random((64, dim)) - 1.0)
    axis = rng.integers(0, dim, 64)
    scale = np.array([-1.0, 1.0, -1.0 - 1e-12, 1.0 + 1e-12])[np.arange(64) % 4]
    faces[np.arange(64), axis] = scale * hw[axis]
    pts = np.concatenate([hw * (2.0 * rng.random((2000, dim)) - 1.0),
                          nodes, faces])
    ours = gm._interp(pts)
    ref = searchsorted_interp(gm, pts)
    assert np.max(np.abs(ours - ref) / np.abs(ref)) <= 1e-13
    assert np.array_equal(gm._interp(nodes), gm.table.ravel())


def test_grid_map_rejects_bad_axes():
    with pytest.raises(ValueError):
        GridMap(axes=(np.array([-1.0, -0.5, 0.2, 1.0]),), table=np.zeros(4))
    with pytest.raises(ValueError):
        GridMap(axes=(np.linspace(0.0, 2.0, 5),), table=np.zeros(5))
    with pytest.raises(ValueError):
        GridMap(axes=(np.linspace(-2.0, 2.0, 5),), table=np.zeros(4))
    ok = GridMap(axes=(np.linspace(-2.0, 2.0, 5),), table=np.zeros(5))
    assert ok.dim == 1


def test_grid_map_interp_and_ray_extension():
    grid = convex_envelope(radial_power(2, 2.0), 2.0, 21)
    gm = grid.envelope_map()
    # exact at the nodes
    assert np.allclose(gm(grid.nodes), grid.envelope, atol=1e-12)
    # multilinear between nodes stays close to the smooth truth
    assert gm([[1.0, 1.0]])[0] == pytest.approx(2.0, abs=1e-2)
    # degree-1 extension along rays outside the box
    inside = gm([[2.0, 2.0]])[0]
    assert gm([[4.0, 4.0]])[0] == pytest.approx(2.0 * inside, rel=1e-12)


# -- mollification ------------------------------------------------------------

def test_mollify_square_certifies_quarter():
    res = mollify(radial_power(1, 2.0), 0.25, 3.0, 49)
    assert res.sandwich_ok
    assert res.certified_fraction == pytest.approx(0.25)
    assert 0.5 <= res.ratio_min <= res.ratio_max <= 2.0
    lo, hi = res.annulus
    assert 0 < lo < hi


def test_mollify_radial_2d():
    res = mollify(radial_power(2, 2.0), 0.25, 2.0, 21)
    assert res.sandwich_ok
    assert res.ratio_min >= 1.0 - 1e-9    # averaging a convex map only grows it


def test_mollify_zero_fraction_is_identity():
    res = mollify(radial_power(1, 2.0), 0.0, 2.0, 21)
    assert res.sandwich_ok
    assert res.ratio_min == pytest.approx(1.0)
    assert res.ratio_max == pytest.approx(1.0)


def test_mollify_rejects_dim_3_before_evaluating():
    calls = []
    base = radial_power(3, 2.0)

    def counted(pts):
        calls.append(pts.shape)
        return base.fn(pts)

    with pytest.raises(ValueError, match="dimensions 1 and 2"):
        mollify(dataclasses.replace(base, fn=counted), 0.25, 2.0, 9)
    assert calls == []


def test_map_points_need_the_trailing_axis():
    with pytest.raises(ValueError, match="trailing axis of size 1"):
        radial_power(1, 2.0).evaluate(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="trailing axis of size 1"):
        radial_power(1, 2.0).evaluate(2.0)


def test_mollify_rejects_bad_fraction():
    with pytest.raises(ValueError):
        mollify(radial_power(1, 2.0), 1.0, 2.0, 21)
    with pytest.raises(ValueError):
        mollify(radial_power(1, 2.0), -0.1, 2.0, 21)


@pytest.mark.parametrize("dim, p, pt, want", [
    (2, 1.0, [1e-170, 0.0], 1e-170),
    (1, 1.5, [1e-170], 1e-255),
])
def test_radial_power_tiny_points(dim, p, pt, want):
    # |x| must not underflow to 0 by squaring its entries
    assert radial_power(dim, p)(np.array([pt]))[0] == pytest.approx(
        want, rel=1e-15, abs=0.0)


def test_radial_power_validation():
    with pytest.raises(ValueError):
        radial_power(4, 2.0)
    with pytest.raises(ValueError):
        radial_power(2, 0.5)
