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
from .seqspace import strict_int

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
    part of the search.  The box half-width must be positive and finite,
    as for the envelope grid.
    """
    if strict_int(trials, "trials") < 1:
        raise ValueError(f"trials must be positive, got {trials!r}")
    if not 0.0 < halfwidth < math.inf:
        raise ValueError("box halfwidth must be positive and finite, "
                         f"got {halfwidth!r}")
    best = -math.inf
    best_w = None
    d, thirds = m.dim, trials // 3
    for start, u in sampling.slices(rng_seed, sampling.QUASICONVEX, 0, trials,
                                    1 + 4 * d):
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


# Every hull decision is the sign of sum(h_i * c_i) over at most four
# terms: h_i node values, c_i integers (products of tick differences)
# small enough to be floats exactly.  In floats that sum is off by at most
# gamma_4 * sum|h_i c_i|, gamma_4 = 4u / (1 - 4u), u = 2**-53 (Higham,
# Accuracy and Stability of Numerical Algorithms, 2002, Sec. 3.1); the
# filter adds one u for the rounding of the magnitude sum itself, and the
# floor covers products below the normal range.  Inside that band, and on
# an overflow, the sign is taken exactly on the values' integer ratios
# (Shewchuk, Discrete Comput. Geom. 18, 1997, for the filter).
_FILTER = 5.0 * 2.0 ** -53
_FLOOR = 1e-300


def _exact_sign(h, c) -> int:
    ratios = [v.as_integer_ratio() for v in h]      # denominators: powers of 2
    den = max(d for _, d in ratios)
    s = sum(ci * n * (den // d) for ci, (n, d) in zip(c, ratios))
    return (s > 0) - (s < 0)


def _signs(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact signs of the row sums of h * c, both of shape (n, k)."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = h * c
        s = t.sum(axis=1)
        sure = np.abs(s) > _FILTER * np.abs(t).sum(axis=1) + _FLOOR
    out = np.where(s > 0, 1, -1)
    for r in np.flatnonzero(~sure):
        out[r] = _exact_sign(h[r].tolist(), c[r].tolist())
    return out


def _below(ticks, values, tri: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Exact signs of "node p[r] lies below the plane of triangle tri[r]"
    (see _Triangulation), for every row r at once."""
    a, b, c = (ticks[tri[:, k]] - ticks[p] for k in range(3))  # offsets to p

    def cross(u, v):
        return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

    cof = np.column_stack([cross(b, c), cross(c, a), cross(a, b)])
    cof = np.column_stack([cof, -cof.sum(axis=1)])
    return _signs(values[np.column_stack([tri, p])], cof)


def _chain(h) -> list:
    """Monotone-chain lower hull of the points (k, h[k]): the k that are
    strict vertices, in order.  A point on or above the chord of its hull
    neighbours is dropped."""
    hull = []
    for k, hk in enumerate(h):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            # (k-j) h_i - (k-i) h_j + (j-i) h_k > 0: j below the chord
            ti, tj, tk = (k - j) * h[i], (k - i) * h[j], (j - i) * hk
            z = ti - tj + tk
            if abs(z) > _FILTER * (abs(ti) + abs(tj) + abs(tk)) + _FLOOR:
                if z > 0:
                    break
            elif _exact_sign((h[i], h[j], hk), (k - j, i - k, j - i)) > 0:
                break
            hull.pop()
        hull.append(k)
    return hull


def _lower_segments(values: np.ndarray, where: str) -> np.ndarray:
    """The lower hull of (k, values[k]) as 2-node simplices."""
    hull = _chain(values.tolist())
    n = len(values)
    k = np.arange(n)
    # (n-1-k) h_0 - (n-1) h_k + k h_(n-1): 0 when node k is on the chord
    if len(hull) == 2 and not _signs(
            np.column_stack([np.full(n, values[0]), values,
                             np.full(n, values[-1])]),
            np.column_stack([n - 1 - k, np.full(n, 1 - n), k])).any():
        raise NumericSignal(f"{where} failed: the lifted nodes are collinear")
    return np.column_stack([hull[:-1], hull[1:]])


class _Triangulation:
    """Regular triangulation of lifted lattice nodes, built by insertion.

    Triangle t has counter-clockwise vertices ``tv[t]`` and in ``tn[t][k]``
    the triangle across the edge opposite vertex k, or -1 on the box
    boundary; a dead triangle has ``tv[t] = None`` and its slot is reused.
    Node p lies below the plane of triangle (a, b, c) when, with c_a,
    c_b, c_c the integer 2x2 cofactors orient(b, c, p), orient(c, a, p),
    orient(a, b, p) and d their sum, h_a c_a + h_b c_b + h_c c_c - h_p d
    is positive; its sign is taken exactly (see _FILTER).
    """

    def __init__(self, x, y, h, first, second):
        """x, y: the nodes' integer ticks, h their values; first, second:
        (vertices, neighbours) of the two triangles of the box corners."""
        self.x, self.y, self.h = x, y, h
        self.tv = [first[0], second[0]]
        self.tn = [first[1], second[1]]
        self.free = []

    def locate(self, t, p) -> int:
        """A triangle holding p (on its boundary or inside), walked to
        from t; every crossed edge has p strictly on its far side."""
        x, y, tv, tn = self.x, self.y, self.tv, self.tn
        px, py = x[p], y[p]
        for step in range(4 * len(tv) + 8):
            a, b, c = tv[t]
            xa, ya, xb, yb = x[a] - px, y[a] - py, x[b] - px, y[b] - py
            xc, yc = x[c] - px, y[c] - py
            # orient(b, c, p), orient(c, a, p), orient(a, b, p)
            sides = (xb * yc - yb * xc, xc * ya - yc * xa, xa * yb - ya * xb)
            if min(sides) >= 0:
                return t
            # the edge tried first turns with each step, which breaks the
            # cycles a fixed order can walk; the step cap ends any other
            k = step % 3
            while sides[k] >= 0:
                k = (k + 1) % 3
            t = tn[t][k]
        raise NumericSignal("hull point location did not terminate")

    def insert(self, p, t) -> int:
        """Insert node p, located in triangle t, if it lies strictly below
        the surface; returns a triangle near p to start the next walk.

        The triangles whose planes pass strictly above p (its conflict
        region) are replaced by the fan from p to the region's boundary:
        in one step, what Edelsbrunner-Shah's 2->2 flips do edge by edge,
        and a node all of whose triangles are in conflict drops out, as
        their 3->1 flip does.  The surface is convex, so along each ray
        from p the conflict triangles come first: the region is
        star-shaped from p, and an edge of its boundary inside the box has
        p strictly on the region's side, since the plane inside passes
        above p and the one outside does not (``certify`` checks every
        triangle counter-clockwise).  Only box sides can be collinear with
        p (p on that side); they get no triangle, and the nodes strictly
        between p and the side's last boundary node drop out.
        """
        x, y, h, tv, tn = self.x, self.y, self.h, self.tv, self.tn
        px, py, hp = x[p], y[p], h[p]
        # crossings (triangle o, from triangle s, edge u -> w of s); the
        # located triangle is entered from nowhere (s = -1)
        work, region, inside, fan = [(t, -1, 0, 0)], [], {}, []
        while work:
            o, s, u, w = work.pop()
            if o >= 0:
                hit = inside.get(o)
                if hit is None:
                    a, b, c = tv[o]
                    # cofactors from the corners' offsets to p
                    xa, ya, xb, yb = x[a] - px, y[a] - py, x[b] - px, y[b] - py
                    xc, yc = x[c] - px, y[c] - py
                    ca, cb = xb * yc - yb * xc, xc * ya - yc * xa
                    cc = xa * yb - ya * xb
                    d = ca + cb + cc
                    ta, tb, tc, tp = h[a] * ca, h[b] * cb, h[c] * cc, hp * d
                    z = ta + tb + tc - tp
                    if abs(z) > _FILTER * (abs(ta) + abs(tb) + abs(tc)
                                           + abs(tp)) + _FLOOR:
                        hit = z > 0
                    else:
                        hit = _exact_sign((h[a], h[b], h[c], hp),
                                          (ca, cb, cc, -d)) > 0
                    inside[o] = hit
                    if hit:
                        region.append(o)
                        n0, n1, n2 = tn[o]
                        work += ((n0, o, b, c), (n1, o, c, a), (n2, o, a, b))
                        continue
                if hit:
                    continue
                if s < 0:
                    return t
                # o's slot for s, read before any slot is rewritten
                fan.append((u, w, o, tn[o].index(s)))
            elif (x[w] - x[u]) * (py - y[u]) != (y[w] - y[u]) * (px - x[u]):
                fan.append((u, w, -1, -1))
        # the fan takes the region's slots, then free ones, then new ones
        more, free = len(fan) - len(region), self.free
        ids = region
        if more < 0:
            for s in region[more:]:
                tv[s] = None
            free += region[more:]
        elif more:
            reuse = min(more, len(free))
            ids += [free.pop() for _ in range(reuse)]
            ids += range(len(tv), len(tv) + more - reuse)
            tv += [None] * (more - reuse)
            tn += [None] * (more - reuse)
        start = {f[0]: i for f, i in zip(fan, ids)}
        if len(start) != len(fan):
            raise NumericSignal("hull conflict region is not simply bounded")
        for (u, w, o, j), i in zip(fan, ids):
            tv[i] = (u, w, p)
            tn[i] = [start.get(w, -1), -1, o]
            if o >= 0:
                tn[o][j] = i
        for i in ids[:len(fan)]:        # the fan's next triangle points back
            if tn[i][0] >= 0:
                tn[tn[i][0]][1] = i
        return i

    def certify(self, ticks, values, where: str) -> np.ndarray:
        """The live triangles' nodes (F, 3), once each is checked
        counter-clockwise and every interior edge locally convex with the
        exact test: the node across an edge never lies strictly below the
        plane of the triangle on this side."""
        live = np.array([t for t, v in enumerate(self.tv) if v is not None])
        verts = np.zeros((len(self.tv), 3), dtype=np.intp)
        verts[live] = [self.tv[t] for t in live]
        a, b, c = (ticks[verts[live, k]] for k in range(3))
        if np.any((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  <= (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])):
            raise NumericSignal(f"{where} failed: a triangle is not "
                                "counter-clockwise")
        nbrs = np.array(self.tn)
        t, k = np.nonzero(nbrs[live] > live[:, None])
        t = live[t]
        o = nbrs[t, k]
        far = verts[o, np.argmax(nbrs[o] == t[:, None], axis=1)]
        if np.any(_below(ticks, values, verts[t], far) > 0):
            raise NumericSignal(
                f"{where} failed: an edge is not locally convex")
        return verts[live]


def _lower_triangles(ticks: np.ndarray, values: np.ndarray, shape,
                     where: str) -> np.ndarray:
    """The lower hull of the lifted lattice nodes as 3-node simplices.

    Only the nodes that are strict vertices of the 1-D lower hulls of
    their row and of their column can be vertices.  Those are inserted
    after the four corners, coarse sublattices first, so that triangles
    stay small and conflict regions few, and each sublattice row by row
    in snake order, so that each walk starts next to the node before.
    """
    nx, ny = shape
    h = values.tolist()
    x, y = ticks[:, 0].tolist(), ticks[:, 1].tolist()
    grid = values.reshape(shape)
    rows, cols = np.zeros((2,) + shape, dtype=bool)
    for i in range(nx):
        rows[i, _chain(grid[i].tolist())] = True
    for j in range(ny):
        cols[_chain(grid[:, j].tolist()), j] = True
    # level: the largest power of two dividing both ticks (30 at 0, 0)
    i, j = ticks.T
    bits = i | j
    level = np.log2(np.where(bits > 0, bits & -bits, 1 << 30)).astype(int)
    order = np.lexsort((np.where((i >> level) & 1, -j, j), i, -level))
    c00, c01, c10, c11 = 0, ny - 1, (nx - 1) * ny, nx * ny - 1
    # the two triangles of the corners, split along the lower diagonal
    corners = values[[[c00, c11, c01, c10]]]
    if _signs(corners, np.array([[1, 1, -1, -1]]))[0] <= 0:
        tri = _Triangulation(x, y, h, ((c00, c10, c11), [-1, 1, -1]),
                             ((c00, c11, c01), [-1, -1, 0]))
    else:
        tri = _Triangulation(x, y, h, ((c00, c10, c01), [1, -1, -1]),
                             ((c10, c11, c01), [-1, 0, -1]))
    t = 0
    try:
        for p in order[(rows & cols).ravel()[order]].tolist():
            if p not in (c00, c01, c10, c11):
                t = tri.insert(p, tri.locate(t, p))
    except NumericSignal as exc:
        raise NumericSignal(f"{where} failed: {exc}") from exc
    simplices = tri.certify(ticks, values, where)
    if len(simplices) == 2 and not np.any(_below(
            ticks, values, np.repeat(simplices[:1], len(h), axis=0),
            np.arange(len(h)))):
        raise NumericSignal(f"{where} failed: the lifted nodes are coplanar")
    return simplices


def convex_envelope(m: YoungMap, halfwidth, resolution: int) -> EnvelopeGrid:
    """Grid lower convex envelope as the lower convex hull of the lifted nodes.

    Each node value is min sum(alpha_i * v_i) over convex weights on the
    grid nodes reproducing the node, which is the height of the lower
    convex hull of the points (node, value) above it.  The hull is built
    here on the integer grid ticks: a monotone chain in dimension 1, a
    regular triangulation by incremental insertion in dimension 2 (see
    _Triangulation).  Each of its decisions is the sign of
    sum(h_i * c_i) with integer cofactors c_i, taken in floats where a
    stated error bound makes it sure and exactly otherwise (see
    _FILTER), so lattice ties are decided, never guessed.

    The hull is not trusted, it is checked: every interior edge is
    locally convex under the same exact test, every node is located in
    a hull simplex, where its barycentric weights are exact rationals,
    and the envelope exceeds no value by more than 1e-9.  A locally
    convex surface over the box is convex; it interpolates the data at
    its vertices and lies below them at every node, so it is the
    envelope.  The support count is the number of positive weights: 1
    at a node that is itself a hull vertex, at most dim+1.  A failed
    check raises NumericSignal, as does a map whose lifted nodes are
    collinear or coplanar (for example one vanishing on the whole grid);
    a map of dimension 3 or more raises ValueError before it is
    evaluated.
    """
    if m.dim not in (1, 2):
        raise ValueError("convex_envelope supports dimensions 1 and 2 only")
    axes = _grid_axes(m.dim, halfwidth, resolution)
    shape = tuple(ax.size for ax in axes)
    where = (f"lower hull of {m.label or 'map'} on the "
             f"{'x'.join(map(str, shape))} grid")
    ticks, nodes = _grid_nodes(axes)
    values = m.evaluate(nodes)
    if not np.all(np.isfinite(values)):
        raise NumericSignal("map produced non-finite values on the envelope grid")
    if m.dim == 1:
        simplices = _lower_segments(values, where)
    else:
        simplices = _lower_triangles(ticks, values, shape, where)
    # With integer corners, weights are adj @ (k - k0) / det with integer
    # adj and det; zero-area simplices would have det 0 and are dropped.
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
