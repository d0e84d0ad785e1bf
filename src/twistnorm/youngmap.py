"""Young-type maps on R^n: construction, envelopes and certificates.

A ``YoungMap`` is an even map m: R^n -> [0, inf) with m(0) = 0, carried
around with declared structural flags (radial monotonicity, convexity).
The central construction is the twisted composition

    Phi(x, y) = f(y) + f(x - theta.twist(y, 1))

for an Orlicz function f and a Lipschitz theta with theta(0) = 0, where
theta.twist(y, rho) = y * theta(log rho - log|y|), 0 at y = 0, is the
one twist shared with the quasi-linear map F of the twisted module.
Phi reads only the values of f; the certified constants of f (see
scalarfn.certify) enter only the proof-side quasi-convexity bound.
Phi is even and quasi-convex but not convex; this module certifies the
quasi-convexity constant empirically, computes the lower convex
envelope on a centred box as the lower convex hull of the lifted grid
nodes, and smooths even maps in dimensions 1 and 2 by averaging over
scaled balls.

Grid-backed maps evaluate by multilinear interpolation inside their box
and by positively homogeneous degree-1 ray extension outside it;
callers that need Young-type growth beyond the box are expected to
enlarge and recompute (see the twisted module).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import sampling
from .errors import NumericSignal
from .scalarfn import OrliczFn, ScalarConstants

__all__ = [
    "LipschitzTheta",
    "identity_theta",
    "soft_clip_theta",
    "YoungMap",
    "radial_power",
    "kalton_peck_map",
    "kp_theoretical_bound",
    "QuasiconvexityResult",
    "quasiconvexity_constant",
    "GridMap",
    "EnvelopeGrid",
    "convex_envelope",
    "MollifyResult",
    "mollify",
]


# --------------------------------------------------------------------------
# Lipschitz reparametrizations of the log scale


@dataclass(frozen=True)
class LipschitzTheta:
    """Odd 1-Lipschitz function with theta(0) = 0."""

    kind: str          # identity | soft_clip
    a: float = 1.0     # the clip bound

    def value(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "identity":
            return t
        if self.kind == "soft_clip":
            return self.a * np.tanh(t / self.a)
        raise ValueError(f"unknown theta kind {self.kind!r}")

    def twist(self, y, rho) -> np.ndarray:
        """y * theta(log rho - log|y|) entrywise, 0 where y = 0; rho
        broadcasts against y.  The two logs are taken apart, so rho / |y|
        never overflows, and log rho only where y != 0, so rho may be 0."""
        y = np.asarray(y, dtype=float)
        rho = np.broadcast_to(np.asarray(rho, dtype=float), y.shape)
        out = np.zeros_like(y)
        nz = y != 0.0
        out[nz] = y[nz] * self.value(np.log(rho[nz]) - np.log(np.abs(y[nz])))
        return out

    def describe(self) -> str:
        if self.kind == "identity":
            return "identity"
        return f"{self.kind}({self.a:g})"


def identity_theta() -> LipschitzTheta:
    return LipschitzTheta("identity")


def soft_clip_theta(b: float) -> LipschitzTheta:
    if not 0 < b < math.inf:
        raise ValueError("clip bound must be positive and finite")
    return LipschitzTheta("soft_clip", float(b))


# --------------------------------------------------------------------------
# maps


def _as_points(pts, dim: int) -> np.ndarray:
    a = np.asarray(pts, dtype=float)
    if a.ndim == 0 or a.shape[-1] != dim:
        raise ValueError(f"points must have trailing axis of size {dim}")
    return a


@dataclass(frozen=True)
class YoungMap:
    """An even nonnegative map on R^n with declared structure flags.

    Evenness is a contract, not a flag: ``mollify`` averages at one node
    of each mirror pair x, -x and copies the other, and raises when m
    reads differently at the two nodes.
    """

    dim: int
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    radially_monotone: bool = False
    convex: bool = False
    label: str = ""

    def evaluate(self, pts) -> np.ndarray:
        return np.asarray(self.fn(_as_points(pts, self.dim)), dtype=float)

    def __call__(self, pts):
        return self.evaluate(pts)


def euclidean_norm(pts: np.ndarray) -> np.ndarray:
    """||x||_2 over the last axis by folding hypot over the coordinates;
    hypot squares no entry, so the norm neither overflows nor underflows.

    A Python loop over the coordinates: hypot.reduce over the short last
    axis is slow on large arrays, and moveaxis costs more than the norm on
    the one-point arrays of a block walk.
    """
    out = np.abs(pts[..., 0])
    for k in range(1, pts.shape[-1]):
        out = np.hypot(out, pts[..., k])
    return out


def radial_power(dim: int, p: float) -> YoungMap:
    """||x||_2**p, with ||x||_2 by hypot (no underflow); convex for p >= 1."""
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    if not p >= 1:
        raise ValueError("exponent must be >= 1")
    return YoungMap(
        dim=dim,
        fn=lambda pts: euclidean_norm(pts) ** p,
        radially_monotone=True,
        convex=True,
        label=f"radial_power({dim},{p:g})",
    )


def kalton_peck_map(f: OrliczFn, theta: LipschitzTheta) -> YoungMap:
    """The twisted two-variable map Phi built from f and theta.

    f need not be certified: Phi reads only its values.
    """
    def fn(pts: np.ndarray) -> np.ndarray:
        x = pts[..., 0]
        y = pts[..., 1]
        return f.value(y) + f.value(x - theta.twist(y, 1.0))

    return YoungMap(
        dim=2,
        fn=fn,
        radially_monotone=False,
        convex=False,
        label=f"kp({f.describe()}, theta={theta.describe()})",
    )


def kp_theoretical_bound(constants: ScalarConstants,
                         theta: LipschitzTheta) -> float:
    """Proof-side quasi-convexity bound max(1 + C*C_K + C**3*C_K*M', C**2).

    C_K = sup f(Kx)/f(x) is f's scale constant at theta's Lipschitz
    constant K.  Both theta kinds are 1-Lipschitz (the soft clip
    a*tanh(t/a) has slope sech**2 <= 1), so K = 1 and C_K = 1 for every f:
    theta enters the bound only through that.
    """
    C = constants.C
    return float(max(1.0 + C + C ** 3 * constants.M_prime, C ** 2))


# --------------------------------------------------------------------------
# empirical quasi-convexity constant


@dataclass(frozen=True)
class QuasiconvexityResult:
    l_hat: float
    witness: tuple[np.ndarray, np.ndarray, float]
    trials: int
    seed: int

    def witness_report(self) -> dict:
        t1, t2, lam = self.witness
        return {"t1": [float(v) for v in t1],
                "t2": [float(v) for v in t2],
                "lambda": float(lam)}


def _ratio(m: YoungMap, t1, t2, lam) -> np.ndarray:
    mid = lam[..., None] * t1 + (1.0 - lam[..., None]) * t2
    num = m.evaluate(mid)
    den = lam * m.evaluate(t1) + (1.0 - lam) * m.evaluate(t2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den >= 1e-300, num / den, -math.inf)


def _polish_witness(m: YoungMap, t1, t2, lam):
    """Deterministic pattern search (60 rounds) keeping only improvements."""
    t1 = np.array(t1, dtype=float)
    t2 = np.array(t2, dtype=float)
    lam = float(lam)
    best = float(_ratio(m, t1[None], t2[None], np.array([lam]))[0])
    step = 0.25
    for _ in range(60):
        improved = False
        for arr, i in [(t1, i) for i in range(m.dim)] + \
                      [(t2, i) for i in range(m.dim)]:
            for d in (1.0 + step, 1.0 - step, -1.0):
                old = arr[i]
                arr[i] = old * d if d > 0 else old + step * (abs(old) + 1e-3) * d
                r = float(_ratio(m, t1[None], t2[None], np.array([lam]))[0])
                if r > best:
                    best = r
                    improved = True
                else:
                    arr[i] = old
        for d in (step, -step):
            cand = min(max(lam + d, 1e-6), 1.0 - 1e-6)
            r = float(_ratio(m, t1[None], t2[None], np.array([cand]))[0])
            if r > best:
                best, lam, improved = r, cand, True
        if not improved:
            step *= 0.5
            if step < 1e-7:
                break
    return best, (t1, t2, lam)


def quasiconvexity_constant(m: YoungMap, trials: int, rng_seed: int,
                            halfwidth: float = 2.0) -> QuasiconvexityResult:
    """Empirical sup of m(lam*t1 + (1-lam)*t2) / (lam*m(t1) + (1-lam)*m(t2)).

    Row i of the sample reads 1 + 4 dim uniforms: lam (1/2 on every 16th
    row), then a pair.  The first third of the rows are uniform box
    points, the second signed log magnitudes, the rest (in dimension 2)
    directed pairs sharing x with small y, where the log kink lives.  The
    first 8 rows are identity pairs t1 = t2, so the result is >= 1 - 1e-12
    whenever the map is positive at one.  Denominators below 1e-300 are
    skipped.  A deterministic local polish around the first best row is
    part of the search.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    best = -math.inf
    best_w = None
    d, thirds = m.dim, trials // 3
    for start in range(0, trials, sampling.CHUNK):
        u = sampling.uniforms(rng_seed, sampling.QUASICONVEX, start,
                              min(sampling.CHUNK, trials - start), 1 + 4 * d)
        lam = u[:, 0].copy()
        lam[-start % 16::16] = 0.5                # global rows 0, 16, 32, ...
        # local ends of the box and log-magnitude parts of the sample
        a, b = (min(max(k - start, 0), len(u)) for k in (thirds, 2 * thirds))
        e = b if d == 2 else len(u)
        t1, t2 = np.empty((2, len(u), d))
        for t, c in ((t1, 1), (t2, 1 + d)):
            t[:a] = halfwidth * (2.0 * u[:a, c:c + d] - 1.0)
            t[a:e] = sampling.signed_log_uniform(
                u[a:e, c:c + d], u[a:e, c + 2 * d:c + 3 * d], 1e-6, halfwidth)
        if d == 2:                                # the rest: directed pairs
            v = u[b:]
            x = sampling.signed_log_uniform(v[:, 1], v[:, 2], 1e-3, halfwidth)
            y1 = sampling.signed_log_uniform(v[:, 3], v[:, 4], 1e-6, halfwidth)
            y2 = np.sign(y1) * sampling.signed_log_uniform(
                v[:, 5], v[:, 6], 1e-6, halfwidth)
            t1[b:], t2[b:] = np.stack([x, y1], -1), np.stack([x, y2], -1)
        t2[:max(8 - start, 0)] = t1[:max(8 - start, 0)]
        r = _ratio(m, t1, t2, lam)
        i = int(np.argmax(r))
        if r[i] > best:
            best = float(r[i])
            best_w = (t1[i].copy(), t2[i].copy(), float(lam[i]))
    if best_w is None or not np.isfinite(best):
        raise NumericSignal("quasi-convexity search found no valid denominator")
    best, best_w = _polish_witness(m, *best_w)
    return QuasiconvexityResult(l_hat=best, witness=best_w,
                                trials=trials, seed=rng_seed)


# --------------------------------------------------------------------------
# grid-backed maps

# points per block of GridMap.evaluate: its ten or so (block,) temporaries
# stay within a 2 MiB L2 cache
_BLOCK = 8192


@dataclass(frozen=True)
class GridMap:
    """Values on a centred box grid, interpolated multilinearly.

    Outside the box a query is pulled back along its ray to the boundary
    and the boundary value is scaled linearly (degree-1 extension).
    Every axis must be a uniform grid centred at 0, as ``_grid_axes``
    builds them; axes and table are stored as float arrays.

    ``evaluate`` takes the stretch max(1, max_i |x_i| / h_i), pulls each
    coordinate back by its own division, finds its cell by index
    arithmetic and reads each of the 2**dim corners with one ``take``;
    no (N, dim) or (N, 2**dim) array is built.  It runs on blocks of
    8192 points at a time, each summed into its slice of one output, so
    its temporaries stay in cache; every step is pointwise, so a value
    does not depend on the block it falls in.  Scaling a query outside
    the box by 2**k scales its stretch exactly and leaves its pull-back
    unchanged, so the value scales by exactly 2**k (short of subnormals
    and overflow).
    """

    axes: tuple
    table: np.ndarray = field(repr=False)
    radially_monotone: bool = False
    convex: bool = False
    label: str = ""

    def __post_init__(self):
        if not self.axes:
            raise ValueError("a grid map needs at least one axis")
        object.__setattr__(self, "axes", tuple(
            np.asarray(ax, dtype=float) for ax in self.axes))
        object.__setattr__(self, "table", np.asarray(self.table, dtype=float))
        if self.table.shape != tuple(ax.size for ax in self.axes):
            raise ValueError("grid table shape must match the axis sizes")
        for ax in self.axes:
            h = float(ax[-1]) if ax.ndim == 1 and ax.size >= 2 else 0.0
            if not (h > 0 and np.allclose(ax, np.linspace(-h, h, ax.size),
                                          rtol=0.0, atol=1e-12 * h)):
                raise ValueError(
                    "grid axes must be uniform and centred at 0 "
                    "(np.linspace(-h, h, n) with h > 0, n >= 2)")

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def halfwidth(self) -> np.ndarray:
        return np.array([ax[-1] for ax in self.axes])

    def evaluate(self, pts) -> np.ndarray:
        pts = _as_points(pts, self.dim)
        flat = pts.reshape(-1, self.dim)
        out = np.zeros(flat.shape[0])
        for start in range(0, flat.shape[0], _BLOCK):
            part = slice(start, start + _BLOCK)
            block = flat[part]
            stretch = np.ones(block.shape[0])
            for i, ax in enumerate(self.axes):
                np.maximum(stretch, np.abs(block[:, i]) / ax[-1], out=stretch)
            self._interp(block, stretch, out[part])
        return out.reshape(pts.shape[:-1])

    def __call__(self, pts):
        return self.evaluate(pts)

    def _interp(self, flat: np.ndarray, stretch=1.0, out=None) -> np.ndarray:
        """stretch * (the interpolant at flat / stretch), flat of shape
        (N, dim); stretch is 1.0 or one value per point.  The sum is taken
        in out, which must hold zeros, when it is given."""
        base = np.zeros(flat.shape[0], dtype=np.intp)   # flat cell index
        weights = []            # (1 - frac, frac) per axis
        for i, ax in enumerate(self.axes):
            h = ax[-1]
            x = flat[:, i] / stretch
            j = x + h
            j *= (ax.size - 1) / (2.0 * h)
            np.floor(j, out=j)
            # fmax/fmin send a NaN coordinate to cell 0, not to a bad index
            np.fmax(j, 0.0, out=j)
            np.fmin(j, ax.size - 2, out=j)
            j = j.astype(np.intp)
            base *= ax.size
            base += j
            x -= ax.take(j)
            x /= (ax[1:] - ax[:-1]).take(j)
            weights.append((1.0 - x, x))
        table = self.table.ravel()
        if out is None:
            out = np.zeros(flat.shape[0])
        vals = w = None         # scratch reused by every corner
        prev = 0
        for corner in range(2 ** self.dim):
            hi = [(corner >> i) & 1 for i in range(self.dim)]
            off = int(np.ravel_multi_index(hi, self.table.shape))
            base += off - prev          # base now indexes this corner
            prev = off
            # the cells are clamped, so "clip" never moves an index
            vals = table.take(base, out=vals, mode="clip")
            # in dim 1 the weight itself is read, never scaled in place
            weight = weights[0][hi[0]]
            for i in range(1, self.dim):
                weight = w = np.multiply(weight, weights[i][hi[i]], out=w)
            vals *= weight
            out += vals
        out *= stretch
        return out

    def as_young(self) -> YoungMap:
        return YoungMap(
            dim=self.dim,
            fn=self.evaluate,
            radially_monotone=self.radially_monotone,
            convex=self.convex,
            label=self.label or "grid map",
        )


# --------------------------------------------------------------------------
# lower convex envelopes


@dataclass(frozen=True)
class EnvelopeGrid:
    """A map and its grid lower convex envelope on a centred box."""

    axes: tuple
    nodes: np.ndarray = field(repr=False)       # (N, dim)
    values: np.ndarray = field(repr=False)      # (N,)
    envelope: np.ndarray = field(repr=False)    # (N,)
    support_max: int = 0
    ratio_max: float = 1.0
    label: str = ""

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def resolution(self) -> int:
        return self.axes[0].size

    def envelope_map(self) -> GridMap:
        shape = tuple(ax.size for ax in self.axes)
        return GridMap(axes=self.axes,
                       table=self.envelope.reshape(shape),
                       radially_monotone=True, convex=True,
                       label=f"envelope of {self.label}")

    def to_csv(self, path) -> None:
        cols = [f"x{i + 1}" for i in range(self.dim)] + ["value", "envelope"]
        data = np.column_stack([self.nodes, self.values, self.envelope])
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in data:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _grid_axes(dim: int, halfwidth, resolution: int):
    hw = np.broadcast_to(np.asarray(halfwidth, dtype=float), (dim,)).copy()
    if np.any(hw <= 0) or not np.all(np.isfinite(hw)):
        raise ValueError("box halfwidth must be positive and finite")
    if resolution < 9:
        raise ValueError("resolution must be at least 9")
    if resolution % 2 == 0:
        raise ValueError("resolution must be odd so the box is centred at 0")
    return tuple(np.linspace(-h, h, resolution) for h in hw)


def _grid_nodes(axes) -> tuple:
    """Integer indices (N, dim) and coordinates (N, dim) of the grid nodes,
    in C order."""
    ticks = np.indices(tuple(ax.size for ax in axes)).reshape(len(axes), -1).T
    return ticks, np.stack([ax[k] for ax, k in zip(axes, ticks.T)], axis=-1)


def convex_envelope(m: YoungMap, halfwidth, resolution: int) -> EnvelopeGrid:
    """Grid lower convex envelope as the lower convex hull of the lifted nodes.

    Each node value is min sum(alpha_i * v_i) over convex weights on the
    grid nodes reproducing the node, which is the height of the lower
    convex hull of the points (node, value) above it.  The hull comes
    from Qhull (scipy.spatial.ConvexHull) in integer grid coordinates;
    each node is located in a non-degenerate lower simplex whose
    projection contains it, where its barycentric weights are exact
    rationals.  The support count is the number of positive weights:
    1 at a node that is itself a hull vertex, at most dim+1.  The result
    never exceeds the sampled values; a map whose lifted nodes span no
    full-dimensional hull (for example one vanishing on the whole grid)
    raises NumericSignal.
    """
    from scipy.spatial import ConvexHull, QhullError

    axes = _grid_axes(m.dim, halfwidth, resolution)
    shape = tuple(ax.size for ax in axes)
    where = (f"lower hull of {m.label or 'map'} on the "
             f"{'x'.join(map(str, shape))} grid")
    ticks, nodes = _grid_nodes(axes)
    values = m.evaluate(nodes)
    if not np.all(np.isfinite(values)):
        raise NumericSignal("map produced non-finite values on the envelope grid")
    try:
        hull = ConvexHull(np.column_stack([ticks, values]))
    except QhullError as exc:
        reason = str(exc).splitlines()[0]
        raise NumericSignal(f"{where} failed: {reason}") from exc
    # Lower simplices face down; vertical and zero-volume ones project to
    # lattice simplices of determinant 0 and are dropped.  With integer
    # corners, weights are adj @ (k - k0) / det with integer adj and det.
    simplices = hull.simplices[hull.equations[:, -2] < 0]
    corners = ticks[simplices]                               # (F, dim+1, dim)
    span = np.swapaxes(corners[:, 1:] - corners[:, :1], 1, 2)
    det = np.rint(np.linalg.det(span)).astype(np.int64)
    keep = det != 0
    simplices, corners, span, det = (simplices[keep], corners[keep],
                                     span[keep], det[keep])
    adj = np.rint(np.linalg.inv(span) * det[:, None, None]).astype(np.int64)
    adj *= np.sign(det)[:, None, None]
    det = np.abs(det)
    # every (simplex, node) pair with the node in the simplex's bounding box
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
    # a node on a shared face has the same weights in every simplex holding it
    located, first = np.unique(np.ravel_multi_index(tuple(k.T), shape),
                               return_index=True)
    if located.size != values.size:
        raise NumericSignal(f"{where} left {values.size - located.size} "
                            "nodes outside every lower simplex")
    owner, weights = owner[first], weights[first]
    env = np.einsum("ti,ti->t", weights,
                    values[simplices[owner]]) / det[owner]
    support_max = int(np.count_nonzero(weights, axis=1).max())
    if np.any(env > values + 1e-9):
        raise NumericSignal("envelope exceeded sampled values beyond tolerance")
    env = np.minimum(np.maximum(env, 0.0), values)
    active = env > 1e-12
    ratio_max = float((values[active] / env[active]).max()) if active.any() else 1.0
    return EnvelopeGrid(axes=axes, nodes=nodes, values=values, envelope=env,
                        support_max=support_max, ratio_max=ratio_max,
                        label=m.label)


# --------------------------------------------------------------------------
# mollification by scaled-ball averages


@dataclass(frozen=True)
class MollifyResult:
    map: GridMap
    radius_fraction: float
    sandwich_ok: bool
    certified_fraction: float | None
    ratio_min: float
    ratio_max: float
    annulus: tuple[float, float]


# two nodes of a mirror pair whose map values differ by more than this,
# relative to the larger, make mollify raise: the map is not even
_EVEN_RTOL = 1e-9


@functools.cache
def _ball_offsets(dim: int):
    """Unit-ball quadrature nodes and weights with uniform (volume) measure,
    in dimensions 1 and 2; built once per dimension, as read-only arrays.
    numpy.polynomial is imported here, so that importing twistnorm does
    not load it."""
    from numpy.polynomial.legendre import leggauss

    if dim == 1:
        g, w = leggauss(33)
        pts, wts = g[:, None], w / w.sum()
    elif dim == 2:
        g, w = leggauss(16)
        u = (g + 1.0) / 2.0          # uniform in volume fraction
        wu = w / w.sum()
        r = np.sqrt(u)
        ang = 2.0 * math.pi * (np.arange(24) + 0.5) / 24
        pts = np.stack([np.outer(r, np.cos(ang)).ravel(),
                        np.outer(r, np.sin(ang)).ravel()], axis=-1)
        wts = np.repeat(wu / 24, 24)
    else:
        raise ValueError("mollify supports dimensions 1 and 2 only")
    pts.flags.writeable = wts.flags.writeable = False
    return pts, wts


def mollify(m: YoungMap, radius_fraction: float, halfwidth,
            resolution: int) -> MollifyResult:
    """Average m over balls B(x, c*||x||) at the grid nodes; m.dim is 1 or 2.

    Checks the two-sided sandwich m/2 <= average <= 2m on the annulus of
    nodes whose balls stay inside the box and which sit at least two grid
    steps from 0.  When the sandwich fails at the requested fraction, a
    halving search reports the largest c' < c for which it holds.

    m must be even.  On the centred C-order grid node N-1-i is -(node i),
    up to linspace rounding, so the average is taken at nodes 0 .. N//2
    (the centre included) and node N-1-i copies node i: half the map
    evaluations, and every table with c > 0 equals its reversal bitwise.
    ValueError is raised, before any average, when m at a node and at
    its mirror differ by more than 1e-9 relative.
    """
    if not 0.0 <= radius_fraction < 1.0:
        raise ValueError("radius fraction must lie in [0, 1)")
    offsets, weights = _ball_offsets(m.dim)
    axes = _grid_axes(m.dim, halfwidth, resolution)
    _, nodes = _grid_nodes(axes)
    base_vals = m.evaluate(nodes)
    mirror = base_vals[::-1]
    gap = np.abs(base_vals - mirror) > _EVEN_RTOL * np.maximum(
        np.abs(base_vals), np.abs(mirror))
    if gap.any():
        i = int(np.argmax(gap))
        raise ValueError(
            f"mollify needs an even map: {m.label or 'map'} reads "
            f"{base_vals[i]!r} at {nodes[i].tolist()} and {mirror[i]!r} "
            f"at its mirror, beyond {_EVEN_RTOL:g} relative")
    half = len(nodes) // 2 + 1          # nodes 0 .. N//2, the centre last
    step = max(float(ax[1] - ax[0]) for ax in axes)
    hw_min = min(float(ax[-1]) for ax in axes)
    norms = np.linalg.norm(nodes, axis=-1)
    shape = tuple(ax.size for ax in axes)

    def averaged(c: float) -> np.ndarray:
        if c == 0.0:
            return base_vals.copy()
        radii = c * norms[:half]
        pts = nodes[:half, None, :] + radii[:, None, None] * offsets
        vals = m.evaluate(pts.reshape(-1, m.dim)).reshape(half, -1) @ weights
        return np.concatenate([vals, vals[-2::-1]])

    def sandwich(c: float, avg: np.ndarray):
        inner = 2.0 * step
        ann = (norms >= inner) & (norms * (1.0 + c) <= hw_min) & (base_vals > 0)
        if not ann.any():
            return False, math.inf, -math.inf
        r = avg[ann] / base_vals[ann]
        return bool(r.min() >= 0.5 and r.max() <= 2.0), float(r.min()), float(r.max())

    avg = averaged(radius_fraction)
    ok, r_lo, r_hi = sandwich(radius_fraction, avg)
    certified = radius_fraction if ok else None
    if not ok:
        c = radius_fraction
        for _ in range(30):
            c = c / 2.0
            if c < 1e-9:
                break
            got, _, _ = sandwich(c, averaged(c))
            if got:
                certified = c
                break
    grid = GridMap(axes=axes, table=avg.reshape(shape),
                   radially_monotone=m.radially_monotone,
                   label=f"mollified {m.label} (c={radius_fraction:g})")
    inner = 2.0 * step
    outer = hw_min / (1.0 + radius_fraction) if radius_fraction > 0 else hw_min
    return MollifyResult(map=grid, radius_fraction=radius_fraction,
                         sandwich_ok=ok, certified_fraction=certified,
                         ratio_min=r_lo, ratio_max=r_hi,
                         annulus=(inner, outer))
