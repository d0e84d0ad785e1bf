import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from twistnorm import (GridMap, NumericSignal, YoungMap, build_space, certify,
                       convex_envelope, extend, from_preset, identity_theta,
                       kalton_peck_map, kp_theoretical_bound,
                       luxemburg_norm_batch, mollify, power, power_log,
                       quasiconvexity_constant, radial_power, sampling,
                       soft_clip_theta)
from twistnorm.youngmap import (_BLOCK, _Triangulation, _ball_offsets,
                                _grid_axes, _grid_nodes, _ratio, _signs)

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
    # the four corners of every lattice cell of |x|^2 are cocircular, so
    # every cell lifts to a plane up to rounding: those ties are decided
    # by the exact predicate and must not leak out
    for resolution in (9, 21):
        grid = convex_envelope(radial_power(2, 2.0), 2.0, resolution)
        assert np.max(np.abs(grid.envelope - grid.values)) <= 1e-12
        assert grid.support_max == 1


def test_envelope_rejects_dim_3_before_evaluating():
    calls = []
    base = radial_power(3, 2.0)

    def counted(pts):
        calls.append(pts.shape)
        return base.fn(pts)

    with pytest.raises(ValueError, match="dimensions 1 and 2"):
        convex_envelope(dataclasses.replace(base, fn=counted), 2.0, 9)
    assert calls == []


@pytest.mark.parametrize("dim", [1, 2])
def test_envelope_of_flat_map_raises(dim):
    zero = YoungMap(dim=dim, fn=lambda pts: np.zeros(pts.shape[:-1]),
                    label="zero map")
    shape = "x".join(["9"] * dim)
    with pytest.raises(NumericSignal, match=f"zero map on the {shape} grid"):
        convex_envelope(zero, 1.0, 9)


def qhull_envelope(m, halfwidth, resolution):
    """Oracle: the envelope on Qhull's lower facets (scipy.spatial), each
    node located in a non-degenerate facet with exact integer weights."""
    axes = _grid_axes(m.dim, halfwidth, resolution)
    shape = tuple(ax.size for ax in axes)
    ticks, nodes = _grid_nodes(axes)
    values = m.evaluate(nodes)
    hull = ConvexHull(np.column_stack([ticks, values]))
    simplices = hull.simplices[hull.equations[:, -2] < 0]
    corners = ticks[simplices]
    span = np.swapaxes(corners[:, 1:] - corners[:, :1], 1, 2)
    det = np.rint(np.linalg.det(span)).astype(np.int64)
    keep = det != 0
    simplices, corners, span, det = (simplices[keep], corners[keep],
                                     span[keep], det[keep])
    adj = np.rint(np.linalg.inv(span) * det[:, None, None]).astype(np.int64)
    adj *= np.sign(det)[:, None, None]
    det = np.abs(det)
    # every (facet, node) pair with the node in the facet's bounding box
    lo = corners.min(axis=1)
    sizes = corners.max(axis=1) - lo + 1
    counts = np.prod(sizes, axis=1)
    owner = np.repeat(np.arange(len(simplices)), counts)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts,
                                             counts)
    k = np.empty((owner.size, m.dim), dtype=np.int64)
    for i in reversed(range(m.dim)):
        k[:, i] = lo[owner, i] + rank % sizes[owner, i]
        rank //= sizes[owner, i]
    num = np.einsum("tij,tj->ti", adj[owner], k - corners[owner, 0])
    weights = np.column_stack([det[owner] - num.sum(axis=1), num])
    inside = np.all(weights >= 0, axis=1)
    owner, k, weights = owner[inside], k[inside], weights[inside]
    located, first = np.unique(np.ravel_multi_index(tuple(k.T), shape),
                               return_index=True)
    assert located.size == values.size
    owner, weights = owner[first], weights[first]
    env = np.einsum("ti,ti->t", weights, values[simplices[owner]]) / det[owner]
    support_max = int(np.count_nonzero(weights, axis=1).max())
    return np.minimum(np.maximum(env, 0.0), values), support_max


@pytest.mark.parametrize("case", ["z2@1", "z2@2", "zp:3@1", "zp:3@2",
                                  "kp-softclip:2,1@1", "kp-softclip:2,1@2",
                                  "radial_power(2,2)", "double-well"])
def test_envelope_matches_the_qhull_oracle(case):
    if case == "radial_power(2,2)":
        m, halfwidth = radial_power(2, 2.0), 2.0
    elif case == "double-well":
        m, halfwidth = double_well(), 3.0
    else:
        name, box = case.split("@")
        m = from_preset(name, with_envelope=False).phi_kp
        halfwidth = float(box)
    for resolution in (9, 17, 41, 81):
        grid = convex_envelope(m, halfwidth, resolution)
        env, _ = qhull_envelope(m, halfwidth, resolution)
        gap = np.abs(grid.envelope - env)
        assert np.all(gap <= np.maximum(4.0 * np.spacing(env), 1e-12 * env))
        assert grid.support_max <= m.dim + 1


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([9, 11]), st.data())
def test_envelope_of_small_integer_heights_matches_lp(n, data):
    # heights 0..3 on a unit lattice: ties, coplanar cells and collinear
    # nodes everywhere
    heights = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * n,
                                          max_size=n * n)),
                       dtype=float).reshape(n, n)
    half = (n - 1) / 2.0

    def fn(pts):
        k = np.rint(pts + half).astype(int)
        return heights[k[..., 0], k[..., 1]]

    m = YoungMap(dim=2, fn=fn, label="heights")
    i, j = np.indices((n, n))
    affine = heights[0, 0] + (heights[1, 0] - heights[0, 0]) * i \
        + (heights[0, 1] - heights[0, 0]) * j
    if np.array_equal(heights, affine):
        with pytest.raises(NumericSignal, match="heights on the"):
            convex_envelope(m, half, n)
        return
    grid = convex_envelope(m, half, n)
    env, _, _ = lp_envelope(m, half, n)
    assert np.max(np.abs(grid.envelope - env)) <= 1e-9
    assert grid.support_max <= 3


def test_hull_predicate_is_exact_where_floats_cancel():
    # 1e16 + 1 rounds to 1e16: the float sums read 0, the exact ones +-1;
    # 4 * 1e308 overflows to inf in floats, and the sum is exactly 0
    h = np.array([[1e16, 1.0, -1e16, 0.5], [1e16, -1.0, -1e16, 0.5],
                  [3.0, 2.0, 1.0, 4.0], [1e308, 1e308, 0.0, 0.0]])
    c = np.array([[1, 1, 1, 0], [1, 1, 1, 0], [1, 1, 1, -1], [4, -4, 0, 0]])
    assert _signs(h, c).tolist() == [1, -1, 1, 0]


@pytest.mark.parametrize("diagonal, ok", [((0, 3), False), ((1, 2), True)])
def test_hull_certificate_checks_every_interior_edge(diagonal, ok):
    # one lattice cell with its corner (1, 1) raised: only the diagonal
    # from (0, 1) to (1, 0) is locally convex
    ticks = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    values = np.array([0.0, 0.0, 0.0, 1.0])
    if diagonal == (0, 3):
        first, second = ((0, 2, 3), [-1, 1, -1]), ((0, 3, 1), [-1, -1, 0])
    else:
        first, second = ((0, 2, 1), [1, -1, -1]), ((2, 3, 1), [-1, 0, -1])
    tri = _Triangulation(ticks[:, 0].tolist(), ticks[:, 1].tolist(),
                         values.tolist(), first, second)
    if ok:
        assert tri.certify(ticks, values, "cell").shape == (2, 3)
    else:
        with pytest.raises(NumericSignal, match="cell failed: an edge is not"):
            tri.certify(ticks, values, "cell")


@pytest.mark.parametrize("name", ["z2", "zp:3", "kp-softclip:2,1"])
def test_finer_envelope_never_exceeds_the_coarser(name):
    # every node of resolution r is a node of 2r - 1 on the same box, and
    # more nodes can only lower a lower hull; the shared nodes agree up to
    # linspace rounding, so allow a few ulps (1 ulp measured)
    phi = from_preset(name, with_envelope=False).phi_kp
    env = {r: convex_envelope(phi, 2.0, r).envelope.reshape(r, r)
           for r in (21, 41, 81)}
    for r in (21, 41):
        coarse, fine = env[r], env[2 * r - 1][::2, ::2]
        assert np.all(fine <= coarse + 4.0 * np.spacing(coarse))


@pytest.mark.parametrize("name, p", [("z2", 2.0), ("zp:3", 3.0)])
def test_kp_map_dilation_identity(name, p):
    # with theta the identity, Phi(x, y) = |y|^p + |x + y log|y||^p, and
    # T(x, y) = (lam (x - y log lam), lam y) scales x + y log|y| by lam,
    # so Phi(T z) = lam^p Phi(z): Kalton-Peck's homogeneity on R^2
    phi = from_preset(name, with_envelope=False).phi_kp
    rng = sampling.rng(15)
    z = sampling.signed_log_uniform(*rng.random((2, 20_000, 2)), 1e-3, 1e3)
    for lam in (0.5, 1.7, 2.0):
        tz = np.stack([lam * (z[:, 0] - z[:, 1] * math.log(lam)),
                       lam * z[:, 1]], axis=-1)
        want = lam ** p * phi.evaluate(z)
        # 2.8e-15 measured
        assert np.max(np.abs(phi.evaluate(tz) - want) / want) <= 1e-14


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


def test_grid_map_rejects_no_axes():
    with pytest.raises(ValueError, match="at least one axis"):
        GridMap(axes=(), table=np.array(1.0))


def test_grid_map_stores_list_axes_as_arrays():
    gm = GridMap(axes=([-1.0, 0.0, 1.0],), table=[1.0, 0.0, 1.0])
    assert isinstance(gm.axes[0], np.ndarray)
    assert gm.axes[0].dtype == float
    assert np.array_equal(gm([[0.5], [-3.0]]), [0.5, 3.0])
    axes = _grid_axes(2, 1.0, 9)
    assert all(a is b for a, b in zip(GridMap(axes, np.zeros((9, 9))).axes,
                                       axes))


def reference_grid_evaluate(gm, pts):
    """Two-pass GridMap.evaluate: build the pulled-back (N, dim) array,
    then interpolate it with a fresh weight and gather per corner."""
    pts = np.asarray(pts, dtype=float)
    stretch = np.max(np.abs(pts) / gm.halfwidth, axis=-1)
    stretch = np.maximum(stretch, 1.0)
    flat = (pts / stretch[..., None]).reshape(-1, gm.dim)
    table = gm.table.ravel()
    base = np.zeros(flat.shape[0], dtype=np.intp)
    frac = []
    for i, ax in enumerate(gm.axes):
        h = ax[-1]
        j = np.floor((flat[:, i] + h) * ((ax.size - 1) / (2.0 * h)))
        j = np.fmin(np.fmax(j, 0.0), ax.size - 2).astype(np.intp)
        base = base * ax.size + j
        frac.append((flat[:, i] - ax[j]) / (ax[j + 1] - ax[j]))
    out = np.zeros(flat.shape[0])
    for corner in range(2 ** gm.dim):
        w = np.ones(flat.shape[0])
        off = 0
        for i, ax in enumerate(gm.axes):
            hi = (corner >> i) & 1
            w *= frac[i] if hi else 1.0 - frac[i]
            off = off * ax.size + hi
        out += w * table[base + off]
    return stretch * out.reshape(pts.shape[:-1])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_evaluate_is_bitwise_the_two_pass_form(dim):
    rng = np.random.default_rng(29 + dim)
    sizes = (9, 13, 11)[:dim]
    axes = tuple(np.linspace(-h, h, n)
                 for h, n in zip((0.7, 2.3, 1.9)[:dim], sizes))
    # signed values, and a corner block of -0.0 whose cells sum to +0.0,
    # so a -0.0/+0.0 flip in the sums would show
    table = rng.normal(size=sizes)
    table[(slice(0, 3),) * dim] = -0.0
    gm = GridMap(axes=axes, table=table)
    hw = gm.halfwidth
    inside = hw * (2.0 * rng.random((3000, dim)) - 1.0)
    faces = hw * (2.0 * rng.random((64, dim)) - 1.0)
    axis = rng.integers(0, dim, 64)
    scale = np.array([-1.0, 1.0, -1.0 - 1e-12, 1.0 + 1e-12])[np.arange(64) % 4]
    faces[np.arange(64), axis] = scale * hw[axis]
    far = inside[:400] * 2.0 ** rng.integers(-60, 61, (400, 1)).astype(float)
    far[:200] *= 2.0 ** 60 / hw
    zero = np.zeros((3, dim))
    zero[1, 0] = -0.0
    nan = inside[:8].copy()
    nan[:, rng.integers(0, dim, 8)] = np.nan
    pts = np.concatenate([inside, faces, far, zero, nan])
    ours, ref = gm.evaluate(pts), reference_grid_evaluate(gm, pts)
    assert np.isnan(ours[-8:]).all()
    assert (ours == 0.0).any()
    assert np.array_equal(ours.view(np.int64), ref.view(np.int64))
    batch = pts[:600].reshape(20, 30, dim)
    assert np.array_equal(gm(batch).view(np.int64),
                          reference_grid_evaluate(gm, batch).view(np.int64))
    assert gm(np.empty((0, dim))).shape == (0,)
    assert gm._interp(inside).tobytes() == gm.evaluate(inside).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_evaluate_is_bitwise_its_slices(dim):
    # evaluate runs in blocks: more than two blocks of points give the
    # bits of seven slices that straddle the block edges
    rng = np.random.default_rng(41 + dim)
    axes = _grid_axes(dim, np.linspace(1.3, 2.1, dim), 9)
    table = rng.normal(size=(9,) * dim)
    table[(4,) * dim] = 0.0         # so the value at +-0.0 is 0
    gm = GridMap(axes=axes, table=table)
    n = 2 * _BLOCK + 1237
    pts = 3.0 * gm.halfwidth * (2.0 * rng.random((n, dim)) - 1.0)
    pts[::97] = 0.0
    pts[1::97] = -0.0
    pts[2::89, rng.integers(0, dim)] = np.nan
    pts[3::89] *= 2.0 ** 40
    slices = np.concatenate([gm.evaluate(part)
                             for part in np.array_split(pts, 7)])
    assert np.isnan(slices).any() and (slices == 0.0).any()
    assert np.array_equal(gm.evaluate(pts).view(np.int64),
                          slices.view(np.int64))
    batch = pts[:(n // 3) * 3].reshape(3, n // 3, dim)
    assert np.array_equal(gm(batch).view(np.int64),
                          slices[:batch.shape[0] * batch.shape[1]]
                          .reshape(3, -1).view(np.int64))


@pytest.fixture(scope="module")
def psi_z2(f2):
    return build_space(f2, identity_theta(), resolution=17).psi_map


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 60), st.integers(-60, 240))
def test_grid_evaluate_is_exactly_homogeneous_outside_the_box(seed, m, k):
    # x = 2^m u with u on or past the boundary, 2^k x likewise: the stretch
    # of both is at least 1 and their values stay clear of subnormals
    k = max(k, -m)
    rng = np.random.default_rng(seed)
    axes = _grid_axes(2, [1.5, 2.5], 9)
    gm = GridMap(axes=axes, table=rng.random((9, 9)))
    u = 2.0 * rng.random((64, 2)) - 1.0
    u *= (1.0 + rng.random((64, 1))) / np.max(np.abs(u) / gm.halfwidth,
                                                axis=-1, keepdims=True)
    x = np.ldexp(u, m)
    assert np.array_equal(gm(np.ldexp(x, k)), np.ldexp(gm(x), k))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(-900, 900))
def test_psi_norm_is_exactly_homogeneous(psi_z2, seed, k):
    rng = np.random.default_rng(seed)
    pairs = rng.normal(size=(16, 8, 2)) * (rng.random((16, 8, 1)) < 0.7)
    ref = luxemburg_norm_batch(psi_z2, pairs)
    assert np.array_equal(luxemburg_norm_batch(psi_z2, np.ldexp(pairs, k)),
                          np.ldexp(ref, k))


def test_grid_map_interp_and_ray_extension():
    grid = convex_envelope(radial_power(2, 2.0), 2.0, 21)
    gm = grid.envelope_map()
    # exact at the nodes
    assert np.allclose(gm(grid.nodes), grid.envelope, atol=1e-12)
    # multilinear between nodes stays close to the smooth truth
    assert gm([[1.0, 1.0]])[0] == pytest.approx(2.0, abs=1e-2)
    # degree-1 extension along rays outside the box
    inside = gm([[2.0, 2.0]])[0]
    assert gm([[4.0, 4.0]])[0] == 2.0 * inside


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


@pytest.mark.parametrize("dim, count", [(1, 33), (2, 384)])
def test_ball_rule_is_built_once_and_read_only(dim, count):
    pts, wts = _ball_offsets(dim)
    assert _ball_offsets(dim)[0] is pts and _ball_offsets(dim)[1] is wts
    assert pts.shape == (count, dim) and wts.shape == (count,)
    assert wts.sum() == pytest.approx(1.0, rel=1e-14)
    for a in (pts, wts):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_mollify_rejects_a_map_that_is_not_even():
    calls = []

    def tilted(pts):
        calls.append(pts.shape)
        t = pts[..., 0]
        return t ** 2 * (1.0 + np.tanh(t) / 2.0)

    with pytest.raises(ValueError, match="even map"):
        mollify(YoungMap(dim=1, fn=tilted, label="tilted"), 0.25, 2.0, 21)
    assert calls == [(21, 1)]           # the node values, no ball average
    # a map even to within the relative tolerance passes
    nearly = lambda_map(lambda t: t ** 2 * (1.0 + 1e-12 * np.tanh(t)))
    assert mollify(nearly, 0.25, 2.0, 21).sandwich_ok


@functools.cache
def preset_envelope(name, resolution):
    return from_preset(name, 2.0, resolution).psi.envelope_map().as_young()


def reference_mollify(m, c, halfwidth, resolution):
    """Table, certified fraction and sandwich ratios of mollify, with the
    ball average taken at every node: no node is read off its mirror."""
    offsets, weights = _ball_offsets(m.dim)
    axes = _grid_axes(m.dim, halfwidth, resolution)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, m.dim)
    base = m.evaluate(nodes)
    norms = np.linalg.norm(nodes, axis=-1)
    step = max(ax[1] - ax[0] for ax in axes)
    hw = min(ax[-1] for ax in axes)

    def average(c):
        pts = nodes[:, None, :] + (c * norms)[:, None, None] * offsets
        return m.evaluate(pts) @ weights

    def ratios(c, avg):
        ann = (norms >= 2.0 * step) & (norms * (1.0 + c) <= hw) & (base > 0)
        return avg[ann] / base[ann]

    def holds(c, avg):
        r = ratios(c, avg)
        return r.min() >= 0.5 and r.max() <= 2.0

    avg = average(c)
    halved = (c / 2 ** k for k in range(1, 31))
    certified = c if holds(c, avg) else next(
        h for h in halved if holds(h, average(h)))
    r = ratios(c, avg)
    return avg, certified, r.min(), r.max()


@pytest.mark.parametrize("case, fraction, halfwidth, resolution, halves", [
    ("z2", 0.25, 2.0, 17, False),
    ("z2", 0.25, 2.0, 41, True),
    ("kp-softclip:2,1", 0.25, 2.0, 17, False),
    ("kp-softclip:2,1", 0.3, 2.0, 41, False),
    ("square-d1", 0.25, 3.0, 49, False),
    ("square-d2", 0.25, (2.0, 3.0), 21, False),
])
def test_mollify_is_the_average_at_every_node(case, fraction, halfwidth,
                                              resolution, halves):
    m = {"square-d1": radial_power(1, 2.0),
         "square-d2": radial_power(2, 2.0)}.get(case)
    m = m or preset_envelope(case, resolution)
    res = mollify(m, fraction, halfwidth, resolution)
    table, certified, r_min, r_max = reference_mollify(
        m, fraction, halfwidth, resolution)
    got = res.map.table.ravel()
    assert np.all(np.abs(got - table) <= 1e-14 * np.abs(table))
    assert res.ratio_min == pytest.approx(r_min, rel=1e-14, abs=0.0)
    assert res.ratio_max == pytest.approx(r_max, rel=1e-14, abs=0.0)
    assert res.certified_fraction == certified
    assert (res.certified_fraction < fraction) is halves
    # node N-1-i copies node i, so the table is bitwise even
    assert np.array_equal(got.view(np.int64), got[::-1].view(np.int64))


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
