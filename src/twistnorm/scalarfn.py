"""Scalar Orlicz functions and their certified growth constants.

The functions handled here are even, convex, nondecreasing on the
positive axis, zero exactly at zero and finite everywhere.  Three
families are provided:

* ``power(p)``      -- ``|t|**p`` for p > 1,
* ``power_log(p)``  -- ``|t|**p * (1 + log(1 + |t|))``,
* ``extend(f, p)``  -- f on [0, 1] continued by ``f(1) * t**q`` above 1,
  with ``q = max(f'(1)/f(1), p)`` using the left derivative at 1.

Growth constants (doubling, subadditivity, the type-p bound, scaling
bounds and the Matuszewska-Orlicz style indices) are certified on
explicit log-spaced grids.  Every supremum is re-sampled on denser and
wider grids; a value that grows by more than 10% (``GROWTH_TOL``) in
every round is reported as unbounded instead of being returned as a
number.  Closed forms are registered for the power family and win over
grid estimates; both members of the pair are kept in the report.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericSignal, UnboundedConstant

__all__ = [
    "OrliczFn",
    "ScalarConstants",
    "power",
    "power_log",
    "extend",
    "estimate_type_constant",
    "derive_M_prime",
    "delta2_constant",
    "subadditivity_constant",
    "scale_constant",
    "estimate_indices",
    "certify",
]


# --------------------------------------------------------------------------
# sampling


# Log-spaced axes for supremum certification: POINTS points on [LO, HI] for
# global sups and on [ZERO_LO, 1] for behaviour at zero.  Each of the ROUNDS
# refinement rounds doubles the density and stretches the open ends by
# RANGE_STRETCH; a sup that grows by more than GROWTH_TOL in every round is
# declared unbounded.
POINTS = 512
LO = 1e-9
HI = 1e9
ZERO_LO = 1e-12
ROUNDS = 3
GROWTH_TOL = 0.10
RANGE_STRETCH = 1e3


def _global_axis(round_: int = 0) -> np.ndarray:
    stretch = RANGE_STRETCH ** round_
    return np.geomspace(LO / stretch, HI * stretch, POINTS * 2 ** round_)


def _unit_axis(round_: int = 0) -> np.ndarray:
    # upper end pinned at 1: only the zero end stretches
    stretch = RANGE_STRETCH ** round_
    return np.geomspace(ZERO_LO / stretch, 1.0, POINTS * 2 ** round_)


def _refined_sup(per_round: Callable[[int], float], what: str,
                 signal_unbounded: bool = True) -> float:
    sups = [per_round(k) for k in range(ROUNDS + 1)]
    if signal_unbounded:
        growing = all(b > a * (1.0 + GROWTH_TOL)
                      for a, b in zip(sups, sups[1:]))
        if growing:
            raise UnboundedConstant(what, sups)
    return float(max(sups))


# Cells per _table_sup block: 2**15 doubles are 256 KiB per temporary, which
# fits in L2 at every round (a 4096-column round gets 8 rows a block).
_BLOCK_CELLS = 1 << 15


def _table_sup(shape: tuple[int, int], cell, symmetric: bool = False) -> float:
    """Max of num / den over a table of the given (rows, cols) shape.

    ``cell(r, c)`` returns the numerator and denominator of the block of
    row slice r and column slice c; the numerator must be a fresh array of
    the block's shape, as it is overwritten.  Blocks are whole rows of
    about _BLOCK_CELLS cells.  A symmetric table (cell(r, c) the transpose
    of cell(c, r)) is walked on the columns j >= the block's first row
    only, which visits every cell or its mirror.  Entries with den <= 0 or
    a non-finite numerator are skipped: the block is divided in place and
    maxed where usable, so no masked copy is made.  A table without a
    usable entry gives -inf.
    """
    n_rows, n_cols = shape
    best = -math.inf
    i = 0
    # overflow and 0 * inf are expected at the far ends of the grids
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while i < n_rows:
            j = i if symmetric else 0
            step = max(1, _BLOCK_CELLS // (n_cols - j))
            num, den = cell(slice(i, i + step), slice(j, n_cols))
            ok = np.isfinite(num) & (den > 0.0)
            np.divide(num, den, out=num)
            best = max(best, float(num.max(where=ok, initial=-math.inf)))
            i += step
    return best


def _scale_sup(f: "OrliczFn", B: float, axis: Callable[[int], np.ndarray],
               what: str) -> float:
    """Refined grid supremum of f(B*x)/f(x) over x on axis(round)."""
    def per_round(k: int) -> float:
        x = axis(k)[:, None]
        return _table_sup(x.shape, lambda r, c: (f.value(B * x[r]),
                                                 f.value(x[r])))

    return _refined_sup(per_round, what)


# --------------------------------------------------------------------------
# the function families


@dataclass(frozen=True)
class OrliczFn:
    """An even convex Orlicz function, optionally carrying certified constants."""

    kind: str
    p: float
    base: "OrliczFn | None" = None
    q: float | None = None
    constants: "ScalarConstants | None" = None

    # -- evaluation ---------------------------------------------------------

    def value(self, x) -> np.ndarray:
        t = np.abs(np.asarray(x, dtype=float))
        if self.kind == "power":
            return t ** self.p
        if self.kind == "power_log":
            return t ** self.p * (1.0 + np.log1p(t))
        if self.kind == "extension":
            inner = self.base.value(np.minimum(t, 1.0))
            with np.errstate(over="ignore"):
                outer = self.base.value_at_1 * t ** self.q
            return np.where(t <= 1.0, inner, outer)
        raise ValueError(f"unknown kind {self.kind!r}")

    def __call__(self, x):
        return self.value(x)

    @property
    def value_at_1(self) -> float:
        if self.kind == "power":
            return 1.0
        if self.kind == "power_log":
            return 1.0 + math.log(2.0)
        return self.base.value_at_1

    @property
    def left_derivative_at_1(self) -> float:
        if self.kind == "power":
            return self.p
        if self.kind == "power_log":
            return self.p * (1.0 + math.log(2.0)) + 0.5
        return self.base.left_derivative_at_1

    # -- provenance ---------------------------------------------------------

    def describe(self) -> str:
        if self.kind == "extension":
            return f"extension({self.base.describe()}, p={self.p:g}, q={self.q:g})"
        return f"{self.kind}({self.p:g})"

    # -- closed-form constants (None when no closed form is registered) ------

    def closed_delta2(self, domain: str) -> float | None:
        if self.kind == "power":
            return 2.0 ** self.p
        return None

    def closed_subadditivity(self) -> float | None:
        if self.kind == "power":
            return 2.0 ** (self.p - 1.0)
        return None

    def closed_type_constant(self, p_claim: float) -> float | None:
        if self.kind == "power" and p_claim <= self.p:
            return 1.0
        return None

    def closed_scale_constant(self, B: float) -> float | None:
        if self.kind == "power":
            return float(B) ** self.p
        return None


def _validate_shape(f: OrliczFn) -> None:
    """Reject degenerate inputs at construction time."""
    xs = np.geomspace(1e-8, 1e6, 57)
    vals = f.value(xs)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{f.describe()}: non-finite values on the probe grid")
    if float(f.value(0.0)) != 0.0:
        raise ValueError(f"{f.describe()}: must vanish at 0")
    if np.any(vals <= 0.0):
        raise ValueError(f"{f.describe()}: must be positive off 0")
    if not np.array_equal(f.value(-xs), vals):
        raise ValueError(f"{f.describe()}: not even")
    if np.any(np.diff(vals) < -1e-12 * vals[1:]):
        raise ValueError(f"{f.describe()}: not nondecreasing")
    # midpoint convexity on consecutive probe pairs
    mids = f.value((xs[:-1] + xs[1:]) / 2.0)
    chords = (vals[:-1] + vals[1:]) / 2.0
    if np.any(mids > chords * (1.0 + 1e-12)):
        raise ValueError(f"{f.describe()}: midpoint convexity fails on probes")


def power(p: float) -> OrliczFn:
    if not p > 1.0:
        raise ValueError("power exponent must exceed 1")
    f = OrliczFn("power", float(p))
    _validate_shape(f)
    return f


def power_log(p: float) -> OrliczFn:
    if not p > 1.0:
        raise ValueError("exponent must exceed 1")
    f = OrliczFn("power_log", float(p))
    _validate_shape(f)
    return f


def extend(f: OrliczFn, p: float) -> OrliczFn:
    """Continue f above 1 by f(1)*t**q with q = max(f'(1)/f(1), p).

    Requires the doubling condition at zero; a diverging at-zero doubling
    ratio raises UnboundedConstant before anything is built.
    """
    if not p > 1.0:
        raise ValueError("extension exponent must exceed 1")
    delta2_constant(f, "at_zero")  # raises when not satisfied
    q = max(f.left_derivative_at_1 / f.value_at_1, p)
    g = OrliczFn("extension", float(p), base=f, q=float(q))
    _validate_shape(g)
    return g


# --------------------------------------------------------------------------
# certified constants


@dataclass(frozen=True)
class ScalarConstants:
    """Certified growth constants of an Orlicz function for exponent p.

    C, M, delta2 and delta2_at_zero are >= 1 and finite.  S and M_prime
    are finite and positive (S crosses 1 near p = e/(e-1), so no upper
    bound is imposed).  c_b maps a scale B > 0 to a bound on
    f(B*x)/f(x).
    """

    p: float
    C: float
    M: float
    S: float
    M_prime: float
    delta2: float
    delta2_at_zero: float
    indices: tuple[float, float]
    c_b: Callable[[float], float] = field(repr=False)
    grid: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("C", "M", "delta2", "delta2_at_zero"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 1.0 - 1e-12):
                raise ValueError(f"constant {name}={v} must be finite and >= 1")
        for name in ("S", "M_prime"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"constant {name}={v} must be finite and > 0")
        if self.indices[0] > self.indices[1] + 1e-12:
            raise ValueError("lower index exceeds upper index")

    def to_report(self) -> dict:
        return {
            "p": self.p,
            "C": self.C,
            "delta2": self.delta2,
            "delta2_at_zero": self.delta2_at_zero,
            "M": self.M,
            "S": self.S,
            "M_prime": self.M_prime,
            "indices": [self.indices[0], self.indices[1]],
            "grid": dict(self.grid),
        }


def estimate_type_constant(f: OrliczFn, p: float) -> float:
    """Grid supremum of f(lam*s) / (lam**p * f(s)) over 0 < lam <= 1, s > 0."""
    if not p > 1.0:
        raise ValueError("type exponent must exceed 1")

    def per_round(k: int) -> float:
        lam = _unit_axis(k)[:, None]
        s = _global_axis(k)
        # f overflows to inf at the far end; no such cell sets the sup
        with np.errstate(over="ignore"):
            phi_s = f.value(s)
        return _table_sup((lam.size, s.size),
                          lambda r, c: (f.value(lam[r] * s[c]),
                                        lam[r] ** p * phi_s[c]))

    return _refined_sup(per_round,
                        f"type constant (p={p:g}) for {f.describe()}")


def derive_M_prime(M: float, p: float) -> float:
    """M' = M * sup_{0<lam<=1} lam**(p-1) * |log lam|**p.

    The sup has the closed form (p/(e(p-1)))**p, attained at
    lam = exp(-p/(p-1)).
    """
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    if not (np.isfinite(M) and M > 0):
        raise ValueError("M must be finite and positive")
    return float(M) * (p / (math.e * (p - 1.0))) ** p


def delta2_constant(f: OrliczFn, domain: str = "global") -> float:
    """Grid supremum of f(2x)/f(x), globally or with x pushed toward 0."""
    if domain not in ("global", "at_zero"):
        raise ValueError("domain must be 'global' or 'at_zero'")
    axis = _global_axis if domain == "global" else _unit_axis
    return _scale_sup(f, 2.0, axis,
                      f"doubling constant ({domain}) for {f.describe()}")


def subadditivity_constant(f: OrliczFn) -> float:
    """Grid supremum of f(x+y)/(f(x)+f(y)) over x, y > 0.

    Bounded whenever the doubling condition holds (C <= delta2); the
    doubling certificate is computed first and raises UnboundedConstant
    for a non-doubling f, so that this sup never has to signal on its own.
    """
    delta2_constant(f, "global")  # raises when not satisfied

    def per_round(k: int) -> float:
        x = _global_axis(k)
        # f overflows to inf at the far end; no such cell sets the sup
        with np.errstate(over="ignore"):
            phi = f.value(x)
        return _table_sup((x.size, x.size),
                          lambda r, c: (f.value(x[r, None] + x[c]),
                                        phi[r, None] + phi[c]),
                          symmetric=True)

    return _refined_sup(per_round,
                        f"subadditivity constant for {f.describe()}",
                        signal_unbounded=False)


def scale_constant(f: OrliczFn, B: float) -> float:
    """Grid supremum of f(B*x)/f(x) for a fixed scale B > 0."""
    if not B > 0:
        raise ValueError("scale must be positive")
    return _scale_sup(f, B, _global_axis,
                      f"scale constant (B={B:g}) for {f.describe()}")


def estimate_indices(f: OrliczFn) -> tuple[float, float]:
    """Grid estimates of the lower and upper growth indices.

    For each exponent q in 1, 1.05, ..., 10 the ratio f(lam*t)/(f(lam)*t**q)
    is sampled over 0 < lam, t <= 1.  The lower index estimate is the
    largest q whose supremum stays below 2; the upper one is the smallest
    q whose infimum stays above 1/2 (1 and 10 when no q qualifies).
    """
    lam = _unit_axis()
    t = _unit_axis()
    colmax = np.full(t.size, -math.inf)
    colmin = np.full(t.size, math.inf)
    for i in range(0, lam.size, 256):
        lb = lam[i:i + 256, None]
        R = f.value(lb * t[None, :]) / f.value(lb)
        colmax = np.maximum(colmax, R.max(axis=0))
        colmin = np.minimum(colmin, R.min(axis=0))
    qs = np.arange(1.0, 10.0 + 0.05 / 2.0, 0.05)
    alpha = 1.0
    beta = 10.0
    beta_found = False
    with np.errstate(over="ignore"):
        for q in qs:
            w = t ** (-q)
            if float((colmax * w).max()) <= 2.0:
                alpha = q
            if not beta_found and float((colmin * w).min()) >= 0.5:
                beta = q
                beta_found = True
    if beta < alpha - 1e-12:
        raise NumericSignal(
            f"index estimates inverted for {f.describe()}: "
            f"alpha={alpha:g} > beta={beta:g}")
    return float(alpha), float(beta)


def certify(f: OrliczFn, p: float) -> OrliczFn:
    """Attach certified constants for exponent p; closed forms win.

    Raises UnboundedConstant when the doubling or type sup genuinely
    diverges under refinement (e.g. a type claim above the true growth
    exponent).
    """
    if not p > 1.0:
        raise ValueError("type exponent must exceed 1")

    grid_report: dict = {
        "points": POINTS, "lo": LO, "hi": HI, "zero_lo": ZERO_LO,
        "rounds": ROUNDS, "growth_tol": GROWTH_TOL,
        "range_stretch": RANGE_STRETCH,
    }

    d2_zero_grid = delta2_constant(f, "at_zero")
    d2_grid = delta2_constant(f, "global")
    d2_zero = f.closed_delta2("at_zero") or d2_zero_grid
    d2 = f.closed_delta2("global") or d2_grid
    grid_report["delta2_grid"] = d2_grid
    grid_report["delta2_at_zero_grid"] = d2_zero_grid

    C_grid = subadditivity_constant(f)
    C = f.closed_subadditivity() or C_grid
    grid_report["C_grid"] = C_grid

    M_closed = f.closed_type_constant(p)
    M_grid = estimate_type_constant(f, p)  # raises when unbounded
    M = M_closed if M_closed is not None else M_grid
    grid_report["M_grid"] = M_grid

    S = derive_M_prime(1.0, p)
    indices = estimate_indices(f)

    cache: dict[float, float] = {}

    def c_b(B: float) -> float:
        closed = f.closed_scale_constant(B)
        if closed is not None:
            return closed
        key = float(B)
        if key not in cache:
            cache[key] = scale_constant(f, key)
        return cache[key]

    sc = ScalarConstants(
        p=float(p), C=float(C), M=float(M), S=float(S),
        M_prime=float(M) * float(S), delta2=float(d2),
        delta2_at_zero=float(d2_zero), indices=indices,
        c_b=c_b, grid=grid_report)
    return dataclasses.replace(f, constants=sc)
