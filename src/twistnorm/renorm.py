"""Renorming pipeline: gauge, extension, star-iterated norms.

Starting from a convex even base map that vanishes only at 0, the
pipeline

  1. selects a level alpha (halving search) whose sublevel-set Minkowski
     gauge |.|_a has level constant M = sup <grad(base)(x), x> over the
     unit gauge sphere at most 1, and alpha at most min base on ||x||_2 = 1;
  2. extends the base across the unit gauge sphere by
     phitilde(x) = base(x) inside, alpha + M(gauge(x) - 1) outside,
     which keeps t -> (1 + phitilde(t x)) / t nonincreasing on rays;
  3. builds the norm N(x0, x) = |x0| (1 + phitilde(x / |x0|)) on
     R^(n+1), with the x0 = 0 branch equal to its limit M |x|_a;
  4. iterates N over block sequences by threading each running value
     through the first coordinate, takes the max as the Lambda norm,
     and certifies the two finite-support invariants behind the
     construction: the per-step product inequality and the invariance
     of continuations under prefix substitution.

The gauge is |x| * gauge(e1) where that is exact (see select_alpha);
otherwise it is the Luxemburg norm of the one-term sequence (x) under
base / alpha, from seqspace.luxemburg_norm_batch.

Certification failures raise NumericSignal at build time; the check
functions return reports instead of raising.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import sampling
from .errors import NumericSignal
from .seqspace import luxemburg_norm_batch
from .youngmap import YoungMap, euclidean_norm, radial_power

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
    "SubstitutionReport",
    "prefix_substitution_check",
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


def level_constant(g: GaugeSpec) -> float:
    """M = sup <grad(base)(x), x> over the unit gauge sphere.

    Central differences; refuses to difference across the origin (points
    inside the 1e-4 ball signal instead).
    """
    pts = _unit_gauge_sphere(g, N_SPHERE)
    if np.any(np.linalg.norm(pts, axis=-1) < 1e-4):
        raise NumericSignal(
            "unit gauge sphere dips into the 1e-4 ball; gradients would "
            "difference across the origin")
    grad = g.base.gradient(pts)
    return float(np.max(np.sum(grad * pts, axis=-1)))


# --------------------------------------------------------------------------
# alpha selection


def select_alpha(base: YoungMap) -> GaugeSpec:
    """Halving search for the first alpha = 2**-j with M <= 1 and alpha at
    most the least sampled base value on the unit sphere.

    Once M <= 1 that is the ray ceiling, inf over ||y||_2 = 1/2 of
    base(tau(y) y), tau(y) = min(argmin_t (1 + base(t y)) / t, 2): for a
    convex base, h(x) = <grad(base)(x), x> - base(x) never falls along a
    ray and h <= M - alpha < 1 on the unit gauge sphere, so (1 + base(t y)) / t
    still falls where the ray leaves {base <= alpha}; only the cap binds.
    With the 1e-9 slack on M this holds for alpha > 1e-9; below, check
    (a) of build_star_norm certifies.

    At each alpha tried, gauge(e1) is solved once and the closed form
    |x| * gauge(e1) is kept when the base equals alpha to 1e-9 on its unit
    gauge sphere (every even map in dimension 1, every radial map);
    otherwise the gauge is solved point by point.
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


def build_phitilde(g: GaugeSpec) -> YoungMap:
    """base on {base <= alpha}, the unit gauge ball; alpha + M(gauge - 1)
    outside it, where alone the gauge is computed."""
    base, alpha, M = g.base, g.alpha, g.M

    def fn(pts: np.ndarray) -> np.ndarray:
        out = base.evaluate(pts).copy()
        outside = out > alpha
        out[outside] = alpha + M * (g.gauge(pts[outside]) - 1.0)
        return out

    made = YoungMap(dim=base.dim, fn=fn, radially_monotone=True, convex=True,
                    label=f"extension of {base.label} at alpha={alpha:g}")
    # continuity across the seam: on the unit gauge sphere base == alpha
    seam = _seam_gap(g, 64)
    if seam > 1e-9:
        raise NumericSignal(
            f"extension discontinuous across the level set (gap {seam:.2e})")
    return made


@dataclass(frozen=True)
class StarNorm:
    """N(x0, x) = |x0| (1 + phitilde(x / |x0|)), with M |x|_a at x0 = 0."""

    dim: int                         # block dimension n; N lives on R^(n+1)
    young: YoungMap = field(repr=False)
    g: GaugeSpec = field(repr=False)
    report: dict = field(default_factory=dict)

    def evaluate(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1] != self.dim + 1:
            raise ValueError(f"points must end in axis of size {self.dim + 1}")
        x0 = pts[..., 0]
        x = pts[..., 1:]
        ax0 = np.abs(x0)
        out = np.empty(ax0.shape)
        zero = ax0 == 0.0
        if np.any(~zero):
            scaled = x[~zero] / ax0[~zero][..., None]
            out[~zero] = ax0[~zero] * (1.0 + self.young.evaluate(scaled))
        if np.any(zero):
            out[zero] = self.g.M * self.g.gauge(x[zero])
        return out

    def __call__(self, pts):
        return self.evaluate(pts)

    def value(self, x0: float, block) -> float:
        pt = np.concatenate([[float(x0)],
                             np.asarray(block, dtype=float).reshape(-1)])
        return float(self.evaluate(pt[None, :])[0])


def build_star_norm(phitilde: YoungMap, g: GaugeSpec,
                    rng_seed: int = 1234) -> StarNorm:
    """Certify the construction, then return the norm.

    Checks: (a) t -> (1 + phitilde(t x)) / t nonincreasing along 1000
    seeded rays on a 1000-point 1e-6..1e6 log grid, 1e-10 relative per
    step; (b) first-coordinate monotonicity on 100 000 seeded tuples,
    1e-12 relative; (c) N(1, 0) = 1 exactly; (d) the x0 = 0 closed form
    matches the x0 -> 0 limit to 1e-6 relative.  Any failure raises
    NumericSignal.
    """
    rng = sampling.rng(rng_seed)
    dim = phitilde.dim

    # (a) the decreasing bullet
    rays = sampling.signed_log_uniform(rng, (1000, dim), 1e-2, 1e2)
    rays /= np.linalg.norm(rays, axis=-1, keepdims=True)
    t = np.geomspace(1e-6, 1e6, 1000)
    pts = rays[:, None, :] * t[None, :, None]
    vals = (1.0 + phitilde.evaluate(pts)) / t[None, :]
    steps = vals[:, 1:] - vals[:, :-1]
    rel = steps / np.maximum(vals[:, :-1], 1e-300)
    decreasing_max = float(rel.max())
    if decreasing_max > 1e-10:
        raise NumericSignal(
            f"(1 + ext(t x)) / t increased by {decreasing_max:.2e} relative "
            "along a sampled ray; the extension is not certified")

    norm = StarNorm(dim=dim, young=phitilde, g=g)

    # (b) monotone in the first coordinate
    blocks = sampling.signed_log_uniform(rng, (100_000, dim), 1e-2, 1e2)
    a = 10.0 ** (-3.0 + 6.0 * rng.random(100_000))
    b = a * (1.0 + rng.random(100_000))
    na = norm.evaluate(np.concatenate([a[:, None], blocks], axis=-1))
    nb = norm.evaluate(np.concatenate([b[:, None], blocks], axis=-1))
    mono_max = float(((na - nb) / np.maximum(nb, 1e-300)).max())
    if mono_max > 1e-12:
        raise NumericSignal(
            f"first-coordinate monotonicity violated by {mono_max:.2e}")

    # (c) unit vector
    unit = norm.value(1.0, np.zeros(dim))
    if unit != 1.0:
        raise NumericSignal(f"N(1, 0) = {unit!r}, expected exactly 1")

    # (d) x0 = 0 branch against its limit
    probes = sampling.signed_log_uniform(rng, (64, dim), 1e-2, 1e2)
    closed = norm.evaluate(np.concatenate(
        [np.zeros((64, 1)), probes], axis=-1))
    eps = 1e-8
    limit = norm.evaluate(np.concatenate(
        [np.full((64, 1), eps), probes], axis=-1))
    limit_gap = float(np.max(np.abs(limit - closed)
                             / np.maximum(closed, 1e-300)))
    if limit_gap > 1e-6:
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
    return StarNorm(dim=dim, young=phitilde, g=g, report=report)


def triangle_violation(norm: StarNorm, trials: int, rng_seed: int) -> float:
    """Max relative triangle violation of N over seeded random pairs.

    Chunk i of the trials draws from the stream keyed ``77 + i``.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    worst = 0.0
    for rng, n in sampling.chunks(rng_seed, trials, 77):
        shape = (n, norm.dim + 1)
        p = sampling.signed_log_uniform(rng, shape, 1e-2, 1e2)
        q = sampling.signed_log_uniform(rng, shape, 1e-2, 1e2)
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
        return cls(dim=int(doc["n"]), blocks=np.array(doc["blocks"],
                                                      dtype=float))

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


def star_iterate(norm: StarNorm, xi: BlockSeq) -> list:
    """Iterated values: v1 = N(0, b1), v_k = N(v_{k-1}, b_k)."""
    if xi.dim != norm.dim:
        raise ValueError("block dimension does not match the norm")
    values = []
    prev = 0.0
    for row in xi.blocks:
        prev = norm.value(prev, row)
        values.append(prev)
    return values


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
    products: list


def suff_criterion_check(norm: StarNorm, phi: YoungMap,
                         xi: BlockSeq) -> SuffReport:
    """Per-step inequality value_k >= value_{k-1} (1 + phi(block_k)), to
    within CHECK_TOL.

    Checked at every step whose previous iterated value lies in (0, 1];
    the report also carries the running product of (1 + phi(block_k)).
    """
    if phi.dim != norm.dim:
        raise ValueError("phi dimension does not match the norm")
    values = star_iterate(norm, xi)
    phis = phi.evaluate(xi.blocks)
    products = list(np.cumprod(1.0 + phis))
    checked = 0
    min_margin = math.inf
    ok = True
    for k in range(1, len(values)):
        prev = values[k - 1]
        if 0.0 < prev <= 1.0:
            margin = values[k] - prev * (1.0 + float(phis[k]))
            checked += 1
            min_margin = min(min_margin, margin)
            if margin < -CHECK_TOL:
                ok = False
    return SuffReport(ok=ok, checked=checked, min_margin=min_margin,
                      values=values, products=products)


@dataclass(frozen=True)
class SubstitutionReport:
    precondition_ok: bool
    reason: str
    norm_u: float
    norm_v: float
    difference: float
    ok: bool


def prefix_substitution_check(norm: StarNorm, u: BlockSeq, v: BlockSeq,
                              tail: BlockSeq) -> SubstitutionReport:
    """Continuations agree when prefixes have matching iterated value.

    Precondition: the two prefix norms agree to 1e-12 (relative to their
    size) and each prefix attains its norm at its final step.  Then the
    norms of u + tail and v + tail must agree within CHECK_TOL.  Only
    u + tail and v + tail are iterated: the first len(u) and len(v) values
    of those walks are the walks of the prefixes.
    """
    full_u = star_iterate(norm, u.extend(tail))
    full_v = star_iterate(norm, v.extend(tail))
    walks = {"u": full_u[:u.n_blocks], "v": full_v[:v.n_blocks]}
    lu, lv = (max(vals) if vals else 0.0 for vals in walks.values())
    scale = max(1.0, lu, lv)
    if abs(lu - lv) > 1e-12 * scale:
        return SubstitutionReport(
            precondition_ok=False,
            reason=f"prefix norms differ: {lu!r} vs {lv!r}",
            norm_u=lu, norm_v=lv, difference=math.nan, ok=False)
    for name, vals in walks.items():
        if vals and vals[-1] != max(vals):
            return SubstitutionReport(
                precondition_ok=False,
                reason=f"prefix {name} does not attain its norm at its last "
                       "block",
                norm_u=lu, norm_v=lv, difference=math.nan, ok=False)
    diff = abs((max(full_u) if full_u else 0.0)
               - (max(full_v) if full_v else 0.0))
    return SubstitutionReport(precondition_ok=True, reason="",
                              norm_u=lu, norm_v=lv, difference=diff,
                              ok=bool(diff <= CHECK_TOL))


def match_lambda_norm(norm: StarNorm, xi: BlockSeq,
                      target: float) -> BlockSeq:
    """Rescale xi so its Lambda norm is `target`.

    The Lambda norm is positively 1-homogeneous (N is a norm, so each
    iterated value scales with the blocks), hence one rescale by
    target / Lambda(xi) suffices.
    """
    if target < 0:
        raise ValueError("target must be nonnegative")
    if target == 0.0:
        return xi.scaled(0.0)
    base = lambda_norm(norm, xi)
    if base == 0.0:
        raise ValueError("cannot scale a zero sequence to a positive norm")
    return xi.scaled(target / base)


# --------------------------------------------------------------------------
# pipelines


@dataclass(frozen=True)
class RenormPipeline:
    name: str
    base: YoungMap = field(repr=False)
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
    base = _PIPELINE_BASES[name]()
    g = select_alpha(base)
    phitilde = build_phitilde(g)
    norm = build_star_norm(phitilde, g, rng_seed=rng_seed)
    return RenormPipeline(name=name, base=base, g=g, phitilde=phitilde,
                          norm=norm)
