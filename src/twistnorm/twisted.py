"""Twisted sums of Orlicz sequence spaces.

Given a certified Orlicz function f and a Lipschitz theta, the map

    F(y)_n = y_n * theta(log(||y||_f / |y_n|))        (0 where y_n = 0)

is quasi-linear, and pairs (x, y) of finitely supported scalar
sequences carry the quasi-norm ||(x, y)|| = ||y||_f + ||x - F(y)||_f.
This module builds the ambient ``TwistedSpace`` (the two-variable
twisted map Phi and its grid convex envelope Psi), evaluates F, the
quasi-norm and the scale family S(k), and runs the seeded empirical
certificates: the quasi-linearity constant of F, the quasi-triangle
constant of the norm, and the equivalence of the quasi-norm with the
Luxemburg norm of Psi on interleaved pairs (with automatic enlargement
of the envelope box until every sampled argument is interpolated, not
extrapolated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericSignal
from . import sampling
from .scalarfn import DEFAULT_PLAN, OrliczFn, certify, power
from .seqspace import VecSeq, luxemburg_norm_batch
from .youngmap import (EnvelopeGrid, GridMap, LipschitzTheta, YoungMap,
                       convex_envelope, identity_theta, kalton_peck_map,
                       soft_clip_theta)

__all__ = [
    "TwistedSpace",
    "build_space",
    "parse_preset",
    "from_preset",
    "PairSeq",
    "kp_F",
    "twisted_norm",
    "twisted_norm_batch",
    "s_functional",
    "QuasiLinearityResult",
    "quasi_linearity_constant",
    "quasi_triangle_constant",
    "equivalence_certificate",
]


# --------------------------------------------------------------------------
# the ambient space


@dataclass(frozen=True)
class TwistedSpace:
    """A certified Orlicz function, a theta, their twisted map and envelope."""

    f: OrliczFn
    theta: LipschitzTheta
    phi_kp: YoungMap = field(repr=False)
    psi: EnvelopeGrid | None = field(default=None, repr=False)
    resolution: int = 41
    label: str = ""

    @property
    def psi_map(self) -> GridMap:
        if self.psi is None:
            raise ValueError(
                f"space {self.label!r} was built without its convex envelope")
        return self.psi.envelope_map()

    @property
    def box_halfwidth(self) -> float:
        if self.psi is None:
            raise ValueError("no envelope, no box")
        return float(self.psi.axes[0][-1])

    def with_box(self, halfwidth: float) -> "TwistedSpace":
        """Recompute the envelope on a larger box at the same resolution."""
        psi = convex_envelope(self.phi_kp, halfwidth, self.resolution)
        return replace(self, psi=psi)


def build_space(f: OrliczFn, theta: LipschitzTheta, halfwidth: float = 2.0,
                resolution: int = 41, with_envelope: bool = True,
                plan=DEFAULT_PLAN, label: str = "") -> TwistedSpace:
    """Certify f if needed, build the twisted map, optionally its envelope."""
    if f.constants is None:
        f = certify(f, f.p, plan)
    phi = kalton_peck_map(f, theta)
    psi = convex_envelope(phi, halfwidth, resolution) if with_envelope else None
    return TwistedSpace(f=f, theta=theta, phi_kp=phi, psi=psi,
                        resolution=resolution,
                        label=label or f"twisted({f.describe()}, {theta.describe()})")


def parse_preset(name: str) -> tuple:
    """Named spaces: z2 | zp:<p> | kp-softclip:<p>,<b> -> (p, theta, label)."""
    name = name.strip()
    if name == "z2":
        return 2.0, identity_theta(), "z2"
    if name.startswith("zp:"):
        try:
            p = float(name[3:])
        except ValueError:
            raise ValueError(f"bad preset {name!r}: zp:<p> needs a number")
        return p, identity_theta(), name
    if name.startswith("kp-softclip:"):
        parts = name[len("kp-softclip:"):].split(",")
        if len(parts) != 2:
            raise ValueError(
                f"bad preset {name!r}: kp-softclip:<p>,<b> needs two numbers")
        try:
            p, b = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"bad preset {name!r}: non-numeric parameters")
        return p, soft_clip_theta(b), name
    raise ValueError(f"unknown preset {name!r}; "
                     "expected z2, zp:<p> or kp-softclip:<p>,<b>")


def from_preset(name: str, halfwidth: float = 2.0, resolution: int = 41,
                with_envelope: bool = True, plan=DEFAULT_PLAN) -> TwistedSpace:
    """The space of a named preset (see ``parse_preset``)."""
    p, theta, label = parse_preset(name)
    return build_space(power(p), theta, halfwidth, resolution, with_envelope,
                       plan, label=label)


# --------------------------------------------------------------------------
# pairs of sequences


@dataclass(frozen=True)
class PairSeq:
    """Two scalar sequences (x, y) on a shared increasing index set."""

    indices: tuple
    xv: np.ndarray = field(repr=False)   # (k,)
    yv: np.ndarray = field(repr=False)   # (k,)

    def __post_init__(self):
        x = np.asarray(self.xv, dtype=float).reshape(-1)
        y = np.asarray(self.yv, dtype=float).reshape(-1)
        if x.size != len(self.indices) or y.size != len(self.indices):
            raise ValueError("indices, xv and yv must have equal lengths")
        # VecSeq validates the entries and indices and drops (0, 0) rows
        v = VecSeq(2, self.indices, np.stack([x, y], axis=-1))
        object.__setattr__(self, "indices", v.indices)
        object.__setattr__(self, "xv", v.vectors[:, 0])
        object.__setattr__(self, "yv", v.vectors[:, 1])

    @classmethod
    def _from_vec2(cls, v: VecSeq) -> "PairSeq":
        return cls(v.indices, v.vectors[:, 0], v.vectors[:, 1])

    @classmethod
    def from_xy(cls, x: VecSeq, y: VecSeq) -> "PairSeq":
        if x.dim != 1 or y.dim != 1:
            raise ValueError("pairs are built from two scalar sequences")
        # (x, 0) + (0, y): every sum adds a zero, so it is exact
        zx, zy = np.zeros_like(x.vectors), np.zeros_like(y.vectors)
        xs = VecSeq(2, x.indices, np.hstack([x.vectors, zx]))
        ys = VecSeq(2, y.indices, np.hstack([zy, y.vectors]))
        return cls._from_vec2(xs.add(ys))

    @classmethod
    def from_json(cls, text: str) -> "PairSeq":
        v = VecSeq.from_json(text)
        if v.dim != 2:
            raise ValueError("a pair file is a dim-2 sequence of (x, y) entries")
        return cls._from_vec2(v)

    def to_json(self) -> str:
        return self.as_vec2().to_json()

    def as_vec2(self) -> VecSeq:
        return VecSeq(2, self.indices,
                      np.stack([self.xv, self.yv], axis=-1))

    @property
    def x_seq(self) -> VecSeq:
        return VecSeq(1, self.indices, np.array(self.xv)[:, None])

    @property
    def y_seq(self) -> VecSeq:
        return VecSeq(1, self.indices, np.array(self.yv)[:, None])

    @property
    def n_terms(self) -> int:
        return len(self.indices)

    def is_zero(self) -> bool:
        return self.n_terms == 0

    def scaled(self, c: float) -> "PairSeq":
        return PairSeq(self.indices, self.xv * float(c), self.yv * float(c))

    def add(self, other: "PairSeq") -> "PairSeq":
        return PairSeq._from_vec2(self.as_vec2().add(other.as_vec2()))

    def __add__(self, other):
        return self.add(other)

    def __mul__(self, c):
        return self.scaled(c)

    __rmul__ = __mul__


# --------------------------------------------------------------------------
# the quasi-linear map and the quasi-norm


def _twist(theta: LipschitzTheta, Y: np.ndarray, rho) -> np.ndarray:
    """Y * theta(log(rho / |Y|)) entrywise, 0 where Y = 0; rho is per row."""
    out = np.zeros_like(Y)
    nz = Y != 0.0
    r = np.broadcast_to(np.asarray(rho, dtype=float)[..., None], Y.shape)
    out[nz] = Y[nz] * theta.value(np.log(r[nz] / np.abs(Y[nz])))
    return out


def kp_F(space: TwistedSpace, y: VecSeq) -> VecSeq:
    """The quasi-linear map: entries y_n * theta(log(||y|| / |y_n|))."""
    if y.dim != 1:
        raise ValueError("F acts on scalar sequences")
    if y.is_zero():
        return VecSeq.from_entries(1, [])
    rho = luxemburg_norm_batch(space.f, y.vectors[None])
    return VecSeq(1, y.indices, _twist(space.theta, y.vectors.T, rho).T)


def twisted_norm(space: TwistedSpace, p: PairSeq) -> float:
    """||y|| + ||x - F(y)|| in the Luxemburg norm of the space's function.

    The one-row case of ``twisted_norm_batch``.
    """
    return float(twisted_norm_batch(space, p.xv[None], p.yv[None])[0])


def twisted_norm_batch(space: TwistedSpace, X: np.ndarray,
                       Y: np.ndarray) -> np.ndarray:
    """Quasi-norms of dense pair rows: (B, d), (B, d) -> (B,)."""
    ny = luxemburg_norm_batch(space.f, Y[..., None])
    diff = X - _twist(space.theta, Y, ny)
    return ny + luxemburg_norm_batch(space.f, diff[..., None])


def s_functional(space: TwistedSpace, p: PairSeq, k: float) -> float:
    """S(k) = sum f(y_j) + sum f(x_j - y_j * theta(log(k / |y_j|)))."""
    if not k > 0:
        raise ValueError("the scale k must be positive")
    if p.is_zero():
        return 0.0
    shift = _twist(space.theta, p.yv, k)
    return float(space.f.value(p.yv).sum() + space.f.value(p.xv - shift).sum())


# --------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class QuasiLinearityResult:
    c_hat: float
    witness: dict
    per_dim: dict
    trials: int
    seed: int


def _dims_for(dim_max: int) -> list:
    dims = sorted({d for d in (16, 64, dim_max) if d <= dim_max})
    return dims or [dim_max]


def _sampled_sup(trials: int, dim_max: int, rng_seed: int, stride: int,
                 draw) -> tuple:
    """Per-dimension sups of a sampled ratio num / den, with a witness.

    The trial budget is split evenly across ``_dims_for(dim_max)``; the
    dimension at position k draws its chunks from the streams keyed
    ``k * stride + i``.  ``draw(rng, n, d)`` returns ``num``, ``den`` and
    a dict of the sampled rows; pairs with ``den == 0`` are skipped.
    Returns ``(sup, per_dim, witness)``, the witness holding the dimension,
    the rows of the best pair and its ratio.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    dims = _dims_for(dim_max)
    share = max(1, trials // len(dims))
    per_dim = {}
    best = 0.0
    witness = {}
    for d_pos, d in enumerate(dims):
        top = 0.0
        for rng, n in sampling.chunks(rng_seed, share, d_pos * stride):
            num, den, rows = draw(rng, n, d)
            ok = np.flatnonzero(den > 0.0)
            if ok.size:
                r = num[ok] / den[ok]
                i = int(np.argmax(r))
                if r[i] > top:
                    top = float(r[i])
                    if top > best:
                        best = top
                        witness = {"dim": d,
                                   **{k: v[ok[i]].tolist()
                                      for k, v in rows.items()},
                                   "ratio": top}
        per_dim[d] = top
    return best, per_dim, witness


def quasi_linearity_constant(space: TwistedSpace, trials: int, dim_max: int,
                             rng_seed: int) -> QuasiLinearityResult:
    """Empirical sup of ||F(x+y) - F(x) - F(y)|| / (||x|| + ||y||).

    The trial budget is split across ambient dimensions (16, 64, dim_max
    capped at dim_max) so stability across dimension is visible in the
    per-dimension table.
    """
    def draw(rng, n, d):
        X = sampling.random_rows(rng, n, d)
        Y = sampling.random_rows(rng, n, d)
        S = X + Y
        nx, ny, ns = (luxemburg_norm_batch(space.f, Z[..., None])
                      for Z in (X, Y, S))
        dev = (_twist(space.theta, S, ns) - _twist(space.theta, X, nx)
               - _twist(space.theta, Y, ny))
        num = luxemburg_norm_batch(space.f, dev[..., None])
        return num, nx + ny, {"x": X, "y": Y}

    best, per_dim, witness = _sampled_sup(trials, dim_max, rng_seed,
                                          1_000_003, draw)
    return QuasiLinearityResult(c_hat=best, witness=witness, per_dim=per_dim,
                                trials=trials, seed=rng_seed)


def quasi_triangle_constant(space: TwistedSpace, trials: int, dim_max: int,
                            rng_seed: int) -> dict:
    """Empirical sup of ||p+q|| / (||p|| + ||q||) for the quasi-norm."""
    def draw(rng, n, d):
        X1, Y1, X2, Y2 = (sampling.random_rows(rng, n, d) for _ in range(4))
        num = twisted_norm_batch(space, X1 + X2, Y1 + Y2)
        den = (twisted_norm_batch(space, X1, Y1)
               + twisted_norm_batch(space, X2, Y2))
        return num, den, {}

    best, per_dim, _ = _sampled_sup(trials, dim_max, rng_seed, 2_000_003,
                                    draw)
    return {"Q_hat": best, "per_dim": per_dim, "trials": trials,
            "seed": rng_seed}


def equivalence_certificate(space: TwistedSpace, trials: int, dim_max: int,
                            rng_seed: int) -> dict:
    """Ratio extremes of twisted_norm / Psi-norm with a doubling check.

    Samples seeded random pairs, computes r = quasi-norm / Luxemburg norm
    of the interleaved pair in the envelope map, and reports the extremes
    over ``2 * trials`` pairs and over a first part of them; each extreme
    must move by less than 5% for the certificate to be stable.  The first
    part ends at the first chunk boundary at or after ``trials`` pairs
    (chunks of ``sampling.CHUNK``), so when ``2 * trials <= CHUNK`` it is
    the whole sample and ``stability`` is 0.  If any argument scaled by
    its Psi-norm escapes the envelope box, the box is doubled, the
    envelope recomputed, and the sampling restarted.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    space.psi_map  # fail early when the envelope is missing
    for _ in range(7):
        psi = space.psi_map
        hw = space.box_halfwidth
        lo1 = hi1 = None          # extremes at the first part's end
        lo = hi = None            # running extremes
        contained = True
        done = 0
        for rng, n in sampling.chunks(rng_seed, 2 * trials):
            X = sampling.random_rows(rng, n, dim_max)
            Y = sampling.random_rows(rng, n, dim_max)
            tw = twisted_norm_batch(space, X, Y)
            pairs = np.stack([X, Y], axis=-1)
            pn = luxemburg_norm_batch(psi, pairs)
            live = (tw > 0.0) & (pn > 0.0)
            sup_coord = np.abs(pairs).max(axis=(1, 2))
            if np.any(sup_coord[live] > pn[live] * hw * (1.0 + 1e-12)):
                contained = False
                break
            if live.any():
                r = tw[live] / pn[live]
                lo = float(r.min()) if lo is None else min(lo, float(r.min()))
                hi = float(r.max()) if hi is None else max(hi, float(r.max()))
            done += n
            if done >= trials and lo1 is None:
                lo1, hi1 = lo, hi
        if not contained:
            space = space.with_box(2.0 * hw)
            continue
        if lo is None or lo1 is None:
            raise NumericSignal("equivalence sampling produced no usable pair")
        drift = max(abs(lo - lo1) / lo1, abs(hi - hi1) / hi1)
        return {
            "ratio": [lo, hi],
            "ratio_first_half": [lo1, hi1],
            "ratio_min": lo,
            "ratio_max": hi,
            "stability": drift,
            "stable": bool(drift < 0.05
                           and math.isfinite(lo) and math.isfinite(hi)
                           and lo > 0.0),
            "trials": trials,
            "seed": rng_seed,
            "dim_max": dim_max,
            "box_halfwidth": hw,
            "resolution": space.resolution,
        }
    raise NumericSignal(
        "envelope box kept overflowing after 6 doublings; "
        "sampled pairs are too spread for a grid certificate")
