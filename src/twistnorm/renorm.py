"""Renorming pipeline: gauge, extension, star-iterated norms.

Starting from a convex even base map that vanishes only at 0, the
pipeline

  1. selects a level alpha (halving search) whose sublevel-set Minkowski
     gauge |.|_a has level constant M at most 1, M the sup over the unit
     gauge sphere of the radial derivative d/dt base(t x) at t = 1, and
     alpha at most min base on ||x||_2 = 1;
  2. extends the base across the unit gauge sphere by
     phitilde(x) = base(x) inside, alpha + M(gauge(x) - 1) outside,
     which keeps t -> (1 + phitilde(t x)) / t nonincreasing on rays;
  3. builds the norm N(x0, x) = |x0| (1 + phitilde(x / |x0|)) on
     R^(n+1) as |x0| plus the perspective |x0| phitilde(x / |x0|) of the
     extension; where x / |x0| lies outside the unit gauge ball that is
     |x0| alpha + M (|x|_a - |x0|), which divides nothing and at x0 = 0
     is the limit M |x|_a.  The GaugeSpec g is the whole construction:
     build_star_norm(g) certifies N and its phitilde, build_phitilde(g);
  4. iterates N over block sequences by threading each running value
     through the first coordinate, takes the max as the Lambda norm,
     and certifies the two finite-support invariants behind the
     construction: the per-step product inequality and the invariance
     of continuations under prefix substitution.

One walk (_walk) iterates N for every caller.  Zero-padded blocks
(B, k, n) give values (B, k), one evaluation of N per block index on
all B rows; suff_margins and substitution_differences run the suff and
prefix checks, with their rescales, on B sequences in two such walks.
The per-sequence functions walk one sequence through star_iterate, and
B = 1 takes a scalar loop (_walk_one): base(x / v) on the (1, n) slice,
the gauges of all k blocks in one call, and the affine rest of N on
Python floats.  Only base and the gauge round in library calls (pow,
hypot), and both run through the same array calls as in the batch; the
rest are single IEEE double operations in the batch's order, so the
values are bitwise the batched walk's.  A 64-block walk on t2 takes
175 us against the batch's 460 us (one core of a 2-vCPU Xeon VM).

The gauge is |x| * gauge(e1) where that is exact (see select_alpha);
otherwise it is the Luxemburg norm of the one-term sequence (x) under
base / alpha, from seqspace.luxemburg_norm_batch.

build_star_norm reads each check's sample by rows of its own keyed
stream, check (b)'s 100 000 tuples one cache-sized slice at a time, so
its traced peak is 1.1-1.5 MiB.  Certification failures raise
NumericSignal at build time; the check functions return reports instead
of raising.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import sampling
from .errors import NumericSignal
from .seqspace import luxemburg_norm_batch, strict_int
from .youngmap import _BLOCK, YoungMap, euclidean_norm, radial_power

__all__ = [
    "GaugeSpec",
    "level_constant",
    "select_alpha",
    "build_phitilde",
    "StarNorm",
    "build_star_norm",
    "star_iterate",
    "lambda_norm",
    "SuffReport",
    "suff_criterion_check",
    "suff_margins",
    "SubstitutionReport",
    "prefix_substitution_check",
    "substitution_differences",
    "match_lambda_norm",
    "BlockSeq",
    "RenormPipeline",
    "PIPELINES",
    "build_pipeline",
    "triangle_violation",
]


# --------------------------------------------------------------------------
# Minkowski gauge of the alpha sublevel set


def _gauge_eval(base: YoungMap, alpha: float, pts: np.ndarray) -> np.ndarray:
    """Per-point gauge: smallest rho with base(x / rho) <= alpha, which is
    the Luxemburg norm of the one-term sequence (x) under base / alpha."""
    lux = YoungMap(dim=base.dim, fn=lambda x: base.evaluate(x) / alpha,
                   radially_monotone=True)
    out = luxemburg_norm_batch(lux, pts.reshape(-1, base.dim)[:, None, :])
    return out.reshape(pts.shape[:-1])


@dataclass(frozen=True)
class GaugeSpec:
    """Gauge of {base <= alpha} with its level constant M."""

    base: YoungMap
    alpha: float
    M: float
    unit_scale: float | None = None   # gauge(e1) when the gauge is |x| * c

    def gauge(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 0 or pts.shape[-1] != self.base.dim:
            raise ValueError(f"points must end in axis of size {self.base.dim}")
        if self.unit_scale is None:
            return _gauge_eval(self.base, self.alpha, pts)
        return euclidean_norm(pts) * self.unit_scale


N_SPHERE = 720     # directions of the dim-2 spheres in select_alpha


def _sphere_dirs(dim: int, n: int) -> np.ndarray:
    """Unit directions: +-1 for dim 1, n equally spaced angles for dim 2."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        ang = 2.0 * math.pi * np.arange(n) / n
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    raise ValueError("sphere directions are built for dimensions 1 and 2 only")


def _unit_gauge_sphere(g: GaugeSpec, n_sphere: int) -> np.ndarray:
    """Points with gauge exactly 1 (2 points for n=1, angular grid for n=2)."""
    dirs = _sphere_dirs(g.base.dim, n_sphere)
    return dirs / g.gauge(dirs)[..., None]


def _seam_gap(g: GaugeSpec, n_sphere: int) -> float:
    """max |base - alpha| over the unit gauge sphere; 0 for an exact gauge."""
    return float(np.abs(g.base.evaluate(_unit_gauge_sphere(g, n_sphere))
                        - g.alpha).max())


RADIAL_STEP = 1e-6   # relative step h of level_constant's radial difference


def level_constant(g: GaugeSpec) -> float:
    """M = sup over the unit gauge sphere of the radial derivative
    d/dt base(t x) at t = 1, read as the central difference
    (base((1 + h) x) - base((1 - h) x)) / 2h with h = RADIAL_STEP.

    The extension needs only an upper bound on the left radial derivative
    at the seam.  At a kink along the ray a convex base's central
    difference reads the mean of the one-sided derivatives, which is at
    least the left one; both points stay on the ray, and the relative step
    is scale-free.
    """
    pts = _unit_gauge_sphere(g, N_SPHERE)
    h = RADIAL_STEP
    up, down = g.base.evaluate(np.stack([(1.0 + h) * pts, (1.0 - h) * pts]))
    return float(np.max((up - down) / (2.0 * h)))


# --------------------------------------------------------------------------
# alpha selection


def select_alpha(base: YoungMap) -> GaugeSpec:
    """Halving search for the first alpha = 2**-j with M <= 1 and alpha at
    most the least sampled base value on the unit sphere.

    Once M <= 1 that is the ray ceiling, inf over ||y||_2 = 1/2 of
    base(tau(y) y), tau(y) = min(argmin_t (1 + base(t y)) / t, 2): for a
    convex base, h(x) = D(x) - base(x), with D(x) the left radial
    derivative d/dt base(t x) at t = 1, never falls along a ray and
    h <= M - alpha < 1 on the unit gauge sphere, so (1 + base(t y)) / t
    still falls where the ray leaves {base <= alpha}; only the cap binds.
    With the 1e-9 slack on M this holds for alpha > 1e-9; below, check
    (a) of build_star_norm certifies.

    At each alpha tried, gauge(e1) is solved once and the closed form
    |x| * gauge(e1) is kept when the base equals alpha to 1e-9 on its unit
    gauge sphere (every even map in dimension 1, every radial map);
    otherwise the gauge is solved point by point.  The search and N read
    only base.evaluate, .dim, .convex and .label, so a GridMap serves.
    """
    if not base.convex:
        raise ValueError("alpha selection needs a convex base map")
    if base.dim not in (1, 2):
        raise ValueError("alpha selection supports dimensions 1 and 2 only")
    sphere = base.evaluate(_sphere_dirs(base.dim, N_SPHERE))
    if not np.all(np.isfinite(sphere)):
        raise NumericSignal("base is not finite on the unit sphere")
    ceiling = float(sphere.min())
    alpha = 1.0
    for _ in range(60):
        unit = float(_gauge_eval(base, alpha, np.eye(1, base.dim))[0])
        trial = GaugeSpec(base=base, alpha=alpha, M=math.nan, unit_scale=unit)
        if _seam_gap(trial, N_SPHERE) > 1e-9:
            trial = GaugeSpec(base=base, alpha=alpha, M=math.nan)
        M = level_constant(trial)
        if M <= 1.0 + 1e-9 and alpha <= ceiling + 1e-12:
            return GaugeSpec(base=base, alpha=alpha, M=M,
                             unit_scale=trial.unit_scale)
        alpha /= 2.0
    raise NumericSignal(
        "no alpha = 2**-j with level constant <= 1 within 60 halvings")


# --------------------------------------------------------------------------
# the extension and the norm


def _scaled_extension(g: GaugeSpec, s: float | np.ndarray, x: np.ndarray,
                      y: np.ndarray) -> np.ndarray:
    """s phitilde(y) at y = x / s, s >= 0: the perspective of phitilde.

    s base(y) inside the unit gauge ball {base <= alpha}; outside it
    s alpha + M (gauge(x) - s), since the gauge is 1-homogeneous, and the
    gauge runs only there.  At s = 0, y is inf or nan and fails
    base(y) <= alpha, so the value is the recession function M gauge(x),
    0 at x = 0.  s is a float or one value per point.
    """
    inner = g.base.evaluate(y)
    shape = inner.shape
    idx = np.flatnonzero(~(inner <= g.alpha))
    out = (inner * s).reshape(-1)   # a copy: base may return a view of y
    del inner                       # freed before the gauge allocates
    if idx.size:
        s_out = np.ravel(s).take(idx) if np.ndim(s) else s
        gauge = g.gauge(x.reshape(-1, x.shape[-1]).take(idx, axis=0))
        out[idx] = s_out * g.alpha + g.M * (gauge - s_out)
    return out.reshape(shape)


def build_phitilde(g: GaugeSpec) -> YoungMap:
    """base on {base <= alpha}, the unit gauge ball; alpha + M(gauge - 1)
    outside it, where alone the gauge is computed (_scaled_extension at
    s = 1).  A base that overflows is outside; as in N, that is silent."""
    def ext(pts):
        with np.errstate(over="ignore"):
            return _scaled_extension(g, 1.0, pts, pts)
    made = YoungMap(dim=g.base.dim, fn=ext,
                    radially_monotone=True, convex=True,
                    label=f"extension of {g.base.label} at alpha={g.alpha:g}")
    # continuity across the seam: on the unit gauge sphere base == alpha
    seam = _seam_gap(g, 64)
    if seam > 1e-9:
        raise NumericSignal(
            f"extension discontinuous across the level set (gap {seam:.2e})")
    return made


@dataclass(frozen=True)
class StarNorm:
    """N(x0, x) = |x0| + |x0| phitilde(x / |x0|), by _scaled_extension of
    g; M |x|_a at x0 = 0.

    g is the whole construction: phitilde is build_phitilde(g), the map
    that build_star_norm certifies.  report holds its certificates.
    """

    g: GaugeSpec = field(repr=False)
    report: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:            # block dimension n; N lives on R^(n+1)
        return self.g.base.dim

    def evaluate(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1] != self.dim + 1:
            raise ValueError(f"points must end in axis of size {self.dim + 1}")
        ax0 = np.abs(pts[..., 0])
        x = pts[..., 1:]
        # x / 0 is inf or nan, and base(x / x0) may overflow to inf: each
        # fails base <= alpha and takes the outside branch, which is finite
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return ax0 + _scaled_extension(self.g, ax0, x, x / ax0[..., None])

    def value(self, x0: float, block) -> float:
        pt = np.concatenate([[float(x0)],
                             np.asarray(block, dtype=float).reshape(-1)])
        return float(self.evaluate(pt[None, :])[0])


def build_star_norm(g: GaugeSpec, rng_seed: int = 1234) -> StarNorm:
    """Certify the construction g, then return its norm.

    Checks, on N and on phitilde = build_phitilde(g) (the extension N
    evaluates, seam guard included): (a) t -> (1 + phitilde(t x)) / t
    nonincreasing along 1000 seeded rays on a 1000-point 1e-6..1e6 log
    grid, 1e-10 relative per step; (b) first-coordinate monotonicity on
    100 000 seeded tuples, 1e-12 relative; (c) N(1, 0) = 1 exactly; (d) N
    is continuous as x0 -> 0: N(0, x) = M |x|_a matches N(1e-8, x) to
    1e-6 relative.  Any failure raises NumericSignal, and so does a
    check that reads nan.

    (a) and (b) run in cache-sized blocks of youngmap._BLOCK points: (a)
    on 8 whole rays at a time, (b) on 8192 of its tuples.  Every point
    gets the arithmetic of one whole-array pass and a max is exact, so
    the report does not depend on the block.  Each sample is read by rows
    of its own keyed stream, n = dim: ray i is row i of STAR_RAYS, n
    magnitudes then n signs; tuple i is row i of STAR_TUPLES, n block
    magnitudes, n signs, then the uniforms behind the first coordinates
    a and b; probe i of (d) is row i of STAR_PROBES, as a ray.  (b) reads
    its 100 000 tuples one slice at a time, so no whole sample is built:
    the traced peak is 1.09 MiB on t2 and t4 and 1.46 MiB on r2.
    """
    phitilde = build_phitilde(g)
    dim = g.base.dim
    n_rays, n_tuples = 1000, 100_000

    # (a) the decreasing bullet, on blocks of whole rays: each step
    # compares adjacent t, so t is never split
    u = sampling.uniforms(rng_seed, sampling.STAR_RAYS, 0, n_rays, 2 * dim)
    rays = sampling.signed_log_uniform(u[:, :dim], u[:, dim:], 1e-2, 1e2)
    rays /= np.linalg.norm(rays, axis=-1, keepdims=True)
    t = np.geomspace(1e-6, 1e6, 1000)
    per_block = _BLOCK // t.size
    decreasing_max = -np.inf
    for start in range(0, len(rays), per_block):
        pts = rays[start:start + per_block, None, :] * t[None, :, None]
        vals = (1.0 + phitilde.evaluate(pts)) / t[None, :]
        steps = vals[:, 1:] - vals[:, :-1]
        rel = steps / np.maximum(vals[:, :-1], 1e-300)
        decreasing_max = np.maximum(decreasing_max, rel.max())
    decreasing_max = float(decreasing_max)
    if not decreasing_max <= 1e-10:
        raise NumericSignal(
            f"(1 + ext(t x)) / t increased by {decreasing_max:.2e} relative "
            "along a sampled ray; the extension is not certified")

    norm = StarNorm(g=g)

    # (b) monotone in the first coordinate, one slice of tuples at a time
    mono_max = -np.inf
    for _, u in sampling.slices(rng_seed, sampling.STAR_TUPLES, 0, n_tuples,
                                2 * dim + 2, _BLOCK):
        blocks = sampling.signed_log_uniform(u[:, :dim], u[:, dim:2 * dim],
                                             1e-2, 1e2)
        a = 10.0 ** (-3.0 + 6.0 * u[:, -2])
        b = a * (1.0 + u[:, -1])
        del u                       # freed before N allocates
        na = norm.evaluate(np.concatenate([a[:, None], blocks], -1))
        nb = norm.evaluate(np.concatenate([b[:, None], blocks], -1))
        mono_max = np.maximum(mono_max,
                              ((na - nb) / np.maximum(nb, 1e-300)).max())
    mono_max = float(mono_max)
    if not mono_max <= 1e-12:
        raise NumericSignal(
            f"first-coordinate monotonicity violated by {mono_max:.2e}")

    # (c) unit vector
    unit = norm.value(1.0, np.zeros(dim))
    if unit != 1.0:
        raise NumericSignal(f"N(1, 0) = {unit!r}, expected exactly 1")

    # (d) x0 = 0 against its limit
    u = sampling.uniforms(rng_seed, sampling.STAR_PROBES, 0, 64, 2 * dim)
    probes = sampling.signed_log_uniform(u[:, :dim], u[:, dim:], 1e-2, 1e2)
    closed = norm.evaluate(np.concatenate(
        [np.zeros((64, 1)), probes], axis=-1))
    eps = 1e-8
    limit = norm.evaluate(np.concatenate(
        [np.full((64, 1), eps), probes], axis=-1))
    limit_gap = float(np.max(np.abs(limit - closed)
                             / np.maximum(closed, 1e-300)))
    if not limit_gap <= 1e-6:
        raise NumericSignal(
            f"x0 = 0 closed form differs from the limit by {limit_gap:.2e}")

    report = {
        "alpha": g.alpha,
        "M": g.M,
        "decreasing_ok": True,
        "decreasing_max_step": decreasing_max,
        "monotone_max_violation": mono_max,
        "N_unit": unit,
        "limit_gap": limit_gap,
        "seed": rng_seed,
    }
    return StarNorm(g=g, report=report)


def triangle_violation(norm: StarNorm, trials: int, rng_seed: int) -> float:
    """Max relative triangle violation of N over seeded random pairs.

    Pair i is row i of the ``(rng_seed, TRIANGLE)`` stream: the magnitudes
    of p and q, log-uniform in [1e-2, 1e2], then their signs."""
    if strict_int(trials, "trials") < 1:
        raise ValueError(f"trials must be positive, got {trials!r}")
    worst = 0.0
    w = norm.dim + 1
    for _, u in sampling.slices(rng_seed, sampling.TRIANGLE, 0, trials, 4 * w):
        pq = sampling.signed_log_uniform(u[:, :2 * w], u[:, 2 * w:], 1e-2, 1e2)
        p, q = pq[:, :w], pq[:, w:]
        lhs = norm.evaluate(p + q)
        rhs = norm.evaluate(p) + norm.evaluate(q)
        worst = max(worst, float(((lhs - rhs) / rhs).max()))
    return worst


# --------------------------------------------------------------------------
# block sequences and iterated norms


@dataclass(frozen=True)
class BlockSeq:
    """A finite list of R^n blocks; block k holds coordinates of slot k."""

    dim: int
    blocks: np.ndarray = field(repr=False)    # (k, dim)

    def __post_init__(self):
        object.__setattr__(self, "dim", strict_int(self.dim, "block dim"))
        if self.dim < 1:
            raise ValueError(
                f"block dim must be a positive integer, got {self.dim}")
        b = np.asarray(self.blocks, dtype=float)
        if b.ndim == 1:
            b = b.reshape(-1, self.dim) if b.size else np.zeros((0, self.dim))
        if b.ndim != 2 or b.shape[1] != self.dim:
            raise ValueError(f"blocks must be rows of length {self.dim}")
        if not np.all(np.isfinite(b)):
            raise ValueError("block entries must be finite")
        b = np.ascontiguousarray(b)
        b.setflags(write=False)
        object.__setattr__(self, "blocks", b)

    @classmethod
    def from_json(cls, text: str) -> "BlockSeq":
        doc = json.loads(text)
        if not isinstance(doc, dict) or "n" not in doc or "blocks" not in doc:
            raise ValueError('block JSON must be {"n": d, "blocks": [[...]]}')
        return cls(dim=strict_int(doc["n"], '"n"'),
                   blocks=np.array(doc["blocks"], dtype=float))

    def to_json(self) -> str:
        return json.dumps({"n": self.dim,
                           "blocks": [[float(v) for v in row]
                                      for row in self.blocks]},
                          sort_keys=True)

    @property
    def n_blocks(self) -> int:
        return int(self.blocks.shape[0])

    def scaled(self, c: float) -> "BlockSeq":
        return BlockSeq(self.dim, self.blocks * float(c))

    def extend(self, tail: "BlockSeq") -> "BlockSeq":
        if tail.dim != self.dim:
            raise ValueError("dimension mismatch")
        return BlockSeq(self.dim, np.vstack([self.blocks, tail.blocks]))


def _pad(seqs, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Sequences of (k_i, dim) blocks as zero-padded (B, max k_i, dim)
    blocks, with their (B,) lengths."""
    seqs = [np.asarray(s, dtype=float) for s in seqs]
    if any(s.ndim != 2 or s.shape[1] != dim for s in seqs):
        raise ValueError(f"blocks must be rows of length {dim}")
    lengths = np.array([len(s) for s in seqs], dtype=int)
    out = np.zeros((len(seqs), lengths.max(initial=0), dim))
    for row, s in zip(out, seqs):
        row[:len(s)] = s
    return out, lengths


def _walk_one(g: GaugeSpec, rows: np.ndarray) -> list:
    """Iterated values of one sequence of blocks (k, n): the batched step
    on Python floats.

    base(x / v) runs on the (1, n) slice, so x / 0 is an array division
    (inf or nan, no ZeroDivisionError), and the gauge of every block comes
    from one g.gauge call, whose rows are independent.  The rest of N is
    the affine part of _scaled_extension in its grouping, one IEEE double
    operation at a time, and nan fails inner <= alpha as it does there.
    """
    base, alpha, M = g.base.evaluate, float(g.alpha), float(g.M)
    values, v = [], 0.0
    for j, gauge in enumerate(g.gauge(rows).tolist()):
        inner = base(rows[j:j + 1] / v).item()
        v = v + (inner * v if inner <= alpha else v * alpha + M * (gauge - v))
        values.append(v)
    return values


def _walk(norm: StarNorm, blocks: np.ndarray) -> np.ndarray:
    """Iterated values (B, k) of B padded block sequences (B, k, n).

    Step j computes v_j = N(v_{j-1}, b_j) for every row at once (v_0 = 0),
    the expression of StarNorm.evaluate without its input checks.  N acts
    point by point, so a row's values are the bits of its own walk, and a
    zero block repeats the value before it exactly (N(v, 0) = v).  One
    sequence (B = 1) walks in _walk_one instead: bitwise the same values
    in about 40% of the time.  A value past the double range raises
    NumericSignal.
    """
    B, k, dim = blocks.shape
    if dim != norm.dim:
        raise ValueError("block dimension does not match the norm")
    values = np.empty((B, k))
    # x / 0 at the first step and an overflow of base(x / v) take the
    # finite outside branch; a value that is not finite raises below
    with np.errstate(all="ignore"):
        if B == 1:
            values[0] = _walk_one(norm.g, blocks[0])
        else:
            v = np.zeros(B)
            for j in range(k):
                x = blocks[:, j]
                values[:, j] = v = v + _scaled_extension(norm.g, v, x,
                                                         x / v[:, None])
    bad = ~np.isfinite(values)
    if bad.any():
        step = int(bad.any(axis=0).argmax())
        rows = np.flatnonzero(bad.any(axis=1))[:8].tolist()
        raise NumericSignal(
            f"iterated norm not finite from block {step} on, in rows {rows} "
            f"of {B}; the walk left the double range")
    return values


def star_iterate(norm: StarNorm, xi: BlockSeq) -> list:
    """Iterated values: v1 = N(0, b1), v_k = N(v_{k-1}, b_k)."""
    return _walk(norm, xi.blocks[None]).tolist()[0]


def lambda_norm(norm: StarNorm, xi: BlockSeq) -> float:
    """sup of the iterated values (0 for the empty sequence)."""
    vals = star_iterate(norm, xi)
    return max(vals) if vals else 0.0


CHECK_TOL = 1e-9   # slack of the step and prefix-substitution checks


@dataclass(frozen=True)
class SuffReport:
    ok: bool
    checked: int
    min_margin: float
    values: list
    log_products: list


def _step_margins(values: np.ndarray, phis: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
    """Margins v_k - v_{k-1} (1 + phi(b_k)) of padded walks (B, k) with
    their phi values (B, k), at the steps k inside each row whose v_{k-1}
    lies in (0, 1]; formed only there, so the product cannot overflow."""
    prev = values[:, :-1]
    checked = ((0.0 < prev) & (prev <= 1.0)
               & (np.arange(1, values.shape[1]) < lengths[:, None]))
    return (values[:, 1:][checked]
            - prev[checked] * (1.0 + phis[:, 1:][checked]))


def suff_criterion_check(norm: StarNorm, phi: YoungMap,
                         xi: BlockSeq) -> SuffReport:
    """Per-step inequality value_k >= value_{k-1} (1 + phi(block_k)), to
    within CHECK_TOL.

    Checked at every step whose previous iterated value lies in (0, 1];
    the report also carries the running product of (1 + phi(block_k)) as
    its log, the cumsum of log1p(phi(block_k)), which stays finite where
    the product overflows.
    """
    if phi.dim != norm.dim:
        raise ValueError("phi dimension does not match the norm")
    values = star_iterate(norm, xi)
    phis = phi.evaluate(xi.blocks)
    margins = _step_margins(np.array([values]), phis[None],
                            np.array([xi.n_blocks]))
    min_margin = float(margins.min(initial=math.inf))
    return SuffReport(ok=min_margin >= -CHECK_TOL, checked=margins.size,
                      min_margin=min_margin, values=values,
                      log_products=np.cumsum(np.log1p(phis)).tolist())


def suff_margins(norm: StarNorm, phi: YoungMap, seqs: list,
                 targets) -> np.ndarray:
    """The checked step margins of B sequences of (k, n) blocks, each
    rescaled to its target Lambda norm first.

    Bitwise the margins of suff_criterion_check on
    match_lambda_norm(norm, seq, target), for all sequences in two walks:
    one for the Lambda norms, one of the rescaled blocks.  Zero padding
    repeats a row's last value, so a padded row's max is its Lambda norm.
    """
    if phi.dim != norm.dim:
        raise ValueError("phi dimension does not match the norm")
    targets = _check_targets(targets)
    blocks, lengths = _pad(seqs, norm.dim)
    blocks = _rescale(blocks, _walk(norm, blocks).max(axis=1, initial=0.0),
                      targets)
    return _step_margins(_walk(norm, blocks), phi.evaluate(blocks), lengths)


@dataclass(frozen=True)
class SubstitutionReport:
    precondition_ok: bool
    reason: str
    norm_u: float
    norm_v: float
    difference: float
    ok: bool


def _prefix_walks(values: np.ndarray, n_prefix, n_full) -> tuple:
    """From padded walks (B, k) of prefix + tail with their prefix and
    full lengths: the prefix norms, whether each prefix attains its norm
    at its last block, and the norms of the whole rows."""
    cols = np.arange(values.shape[1])

    def pick(mask):      # max of each row's masked values, 0 where none
        return np.where(mask, values, 0.0).max(axis=1, initial=0.0)

    n, n_full = np.asarray(n_prefix)[:, None], np.asarray(n_full)[:, None]
    lam = pick(cols < n)
    return lam, pick(cols == n - 1) == lam, pick(cols < n_full)


def _substitution_verdict(walk_u: tuple, walk_v: tuple) -> tuple:
    """Per triple, from the _prefix_walks of u + tail and v + tail: the
    prefix norms lu and lv, the difference of the whole norms, and the
    reason the precondition of the first failing triple fails ("" when
    every precondition holds)."""
    (lu, attained_u, whole_u), (lv, attained_v, whole_v) = walk_u, walk_v
    differ = np.abs(lu - lv) > 1e-12 * np.maximum(1.0, np.maximum(lu, lv))
    failed = np.flatnonzero(differ | ~attained_u | ~attained_v)
    reason = ""
    if failed.size:
        i = failed[0]
        if differ[i]:
            reason = (f"prefix norms differ: {float(lu[i])!r} vs "
                      f"{float(lv[i])!r}")
        else:
            reason = (f"prefix {'v' if attained_u[i] else 'u'} does not "
                      "attain its norm at its last block")
    return lu, lv, np.abs(whole_u - whole_v), reason


def prefix_substitution_check(norm: StarNorm, u: BlockSeq, v: BlockSeq,
                              tail: BlockSeq) -> SubstitutionReport:
    """Continuations agree when prefixes have matching iterated value.

    Precondition: the two prefix norms agree to 1e-12 (relative to their
    size) and each prefix attains its norm at its final step.  Then the
    norms of u + tail and v + tail must agree within CHECK_TOL.  Only
    u + tail and v + tail are iterated: the first len(u) and len(v) values
    of those walks are the walks of the prefixes.
    """
    walks = []
    for prefix in (u, v):
        full = star_iterate(norm, prefix.extend(tail))
        walks.append(_prefix_walks(np.array([full]), [prefix.n_blocks],
                                   [len(full)]))
    lu, lv, diff, reason = _substitution_verdict(*walks)
    lu, lv, diff = float(lu[0]), float(lv[0]), float(diff[0])
    if reason:
        return SubstitutionReport(
            precondition_ok=False, reason=reason,
            norm_u=lu, norm_v=lv, difference=math.nan, ok=False)
    return SubstitutionReport(precondition_ok=True, reason="",
                              norm_u=lu, norm_v=lv, difference=diff,
                              ok=diff <= CHECK_TOL)


def substitution_differences(norm: StarNorm, us: list, vs: list,
                             tails: list) -> tuple[np.ndarray, str]:
    """Prefix substitution on B triples (u_i, v_i, tail_i) of (k, n)
    blocks, each v_i rescaled to the Lambda norm of u_i first.

    Returns the differences of prefix_substitution_check on
    (u_i, match_lambda_norm(norm, v_i, lambda_norm(norm, u_i)), tail_i),
    bitwise, and the reason the precondition of the first failing triple
    fails ("" when every precondition holds).  Two walks: every u + tail
    beside every v, whose first len(u) values are u's walk; then every
    rescaled v + tail.
    """
    B = len(us)
    if len(vs) != B or len(tails) != B:
        raise ValueError("us, vs and tails must have the same length")
    first, n_first = _pad([np.concatenate([u, t]) for u, t in zip(us, tails)]
                          + list(vs), norm.dim)
    values = _walk(norm, first)
    walk_u = _prefix_walks(values[:B], [len(u) for u in us], n_first[:B])
    n_v = n_first[B:]
    matched = _rescale(first[B:], values[B:].max(axis=1, initial=0.0),
                       walk_u[0])
    second, n_second = _pad([np.concatenate([v[:n], t])
                             for v, n, t in zip(matched, n_v, tails)],
                            norm.dim)
    walk_v = _prefix_walks(_walk(norm, second), n_v, n_second)
    return _substitution_verdict(walk_u, walk_v)[2:]


def _check_targets(targets) -> np.ndarray:
    """Lambda-norm targets as an array; each must be finite and >= 0."""
    targets = np.asarray(targets, dtype=float)
    bad = ~(np.isfinite(targets) & (targets >= 0.0))
    if bad.any():
        raise ValueError("target must be finite and nonnegative, got "
                         f"{float(targets[bad][0])!r}")
    return targets


def _rescale(blocks: np.ndarray, norms: np.ndarray,
             targets: np.ndarray) -> np.ndarray:
    """Padded blocks (B, k, n) scaled row by row by target / norm, or by 0
    for a zero target."""
    if np.any((norms == 0.0) & (targets > 0.0)):
        raise ValueError("cannot scale a zero sequence to a positive norm")
    scale = np.zeros(len(targets))
    np.divide(targets, norms, out=scale, where=targets != 0.0)
    return blocks * scale[:, None, None]


def match_lambda_norm(norm: StarNorm, xi: BlockSeq,
                      target: float) -> BlockSeq:
    """Rescale xi so its Lambda norm is `target`.

    The Lambda norm is positively 1-homogeneous (N is a norm, so each
    iterated value scales with the blocks), hence one rescale by
    target / Lambda(xi) suffices.
    """
    targets = _check_targets([target])
    if target == 0.0:
        return xi.scaled(0.0)
    lam = np.array([lambda_norm(norm, xi)])
    return BlockSeq(xi.dim, _rescale(xi.blocks[None], lam, targets)[0])


# --------------------------------------------------------------------------
# pipelines


@dataclass(frozen=True)
class RenormPipeline:
    name: str
    g: GaugeSpec = field(repr=False)
    phitilde: YoungMap = field(repr=False)
    norm: StarNorm = field(repr=False)

    def report(self) -> dict:
        return dict(self.norm.report)


_PIPELINE_BASES = {
    "t2-pipeline": lambda: radial_power(1, 2.0),
    "t4-pipeline": lambda: radial_power(1, 4.0),
    "r2-pipeline": lambda: radial_power(2, 2.0),
}
PIPELINES = tuple(_PIPELINE_BASES)


def build_pipeline(name: str, rng_seed: int = 1234) -> RenormPipeline:
    """End-to-end construction for a named base map."""
    if name not in _PIPELINE_BASES:
        raise ValueError(f"unknown pipeline {name!r}; "
                         f"expected one of {sorted(_PIPELINE_BASES)}")
    g = select_alpha(_PIPELINE_BASES[name]())
    norm = build_star_norm(g, rng_seed=rng_seed)
    return RenormPipeline(name=name, g=g, phitilde=build_phitilde(g),
                          norm=norm)
