"""Finitely supported vector sequences and Luxemburg-type norms.

A ``VecSeq`` holds finitely many nonzero vectors of a fixed dimension at
strictly increasing positive integer indices.  Given an even map m that
is nondecreasing along rays (an object with ``dim``, ``evaluate`` and
``radially_monotone``, and optionally ``degree``), the modular of a
sequence at scale rho is

    modular(s, rho) = sum_i m(v_i / rho)

and the Luxemburg norm is the smallest rho with modular(s, rho) <= 1.
The norm is computed by a vectorized geometric bracket (doubling and
halving, capped at 2**64 in either direction) that holds each root
within a factor 2, followed by Illinois false position on
(log rho, log modular) to a relative width of 1e-12 (Dowell and Jarratt,
BIT 11, 1971), which bisects whenever a row's steps so far plus the
bisection steps left would exceed twice those of log bisection, so a
row takes at most 80 steps.  A map whose
``degree`` is p, so that m(c x) = c**p m(x) for c > 0, has
modular(rho) = modular(s) (s / rho)**p: its root s modular(s)**(1/p) is
read off one evaluation at the start s, and kept where one more
evaluation, at the root times 1 -/+ 1e-12/4, brackets it as the search
would; a row that fails this check is searched from that root.
Batches of sequences are solved simultaneously on their
nonzero cells only, scattered left in order by ``compact_rows``, each
row at the exact power-of-two scale that puts its largest entry in
[1/2, 1), so no row underflows or overflows while solving (Blue, ACM
TOMS 4, 1978); a norm beyond the float64 range raises NumericSignal.
A row's modular is summed in cell order, so the padding to the widest
row adds exact zeros and a row's norm is bitwise its one-row solve,
whatever batch it is solved in.
The renorming gauge is a one-term Luxemburg norm and is solved here too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError, NumericSignal

__all__ = [
    "VecSeq",
    "modular",
    "luxemburg_norm",
    "luxemburg_norm_batch",
]


def strict_int(value, what: str) -> int:
    """value as an int when it is one, numpy integers included; a bool, a
    float (even 2.0) or anything else raises ValueError naming it, as
    int() would silently truncate it."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class VecSeq:
    """Finitely many nonzero vectors at increasing positive indices."""

    dim: int
    indices: tuple
    vectors: np.ndarray = field(repr=False)   # (k, dim), read-only

    def __post_init__(self):
        dim = strict_int(self.dim, "dim")
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        object.__setattr__(self, "dim", dim)
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape != (len(self.indices), self.dim):
            raise ValueError("vectors must have shape (len(indices), dim)")
        if not np.all(np.isfinite(v)):
            raise ValueError("vector entries must be finite")
        idx = tuple(strict_int(i, "index") for i in self.indices)
        if any(i < 1 for i in idx):
            raise ValueError("indices must be positive integers")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        keep = np.any(v != 0.0, axis=1)
        idx = tuple(i for i, k in zip(idx, keep) if k)
        v = np.ascontiguousarray(v[keep])
        v.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "vectors", v)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_entries(cls, dim: int, entries) -> "VecSeq":
        """Build from (index, vector) pairs in any order."""
        pairs = sorted((strict_int(i, "entry index"),
                        np.asarray(v, dtype=float).reshape(-1))
                       for i, v in entries)
        idx = tuple(i for i, _ in pairs)
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate indices")
        vecs = (np.array([v for _, v in pairs], dtype=float)
                if pairs else np.zeros((0, dim)))
        return cls(dim=dim, indices=idx, vectors=vecs.reshape(len(idx), dim))

    @classmethod
    def from_values(cls, values) -> "VecSeq":
        """Scalar convenience: values v_i at indices 1, 2, ..."""
        vals = np.asarray(values, dtype=float).reshape(-1)
        idx = tuple(range(1, 1 + vals.size))
        return cls(dim=1, indices=idx, vectors=vals[:, None])

    @classmethod
    def from_json(cls, text: str) -> "VecSeq":
        doc = json.loads(text)
        if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
            raise ValueError('sequence JSON must be {"dim": d, "entries": [...]}')
        dim = strict_int(doc["dim"], "dim")
        entries = []
        for item in doc["entries"]:
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                raise ValueError("each entry must be [index, vector]")
            i, v = item
            strict_int(i, f"index of entry {item!r}")
            v = [v] if isinstance(v, (int, float)) else list(v)
            if len(v) != dim:
                raise ValueError(f"entry at index {i} has wrong dimension")
            entries.append((i, v))
        return cls.from_entries(dim, entries)

    def to_json(self) -> str:
        return json.dumps({
            "dim": self.dim,
            "entries": [[i, [float(x) for x in v]]
                        for i, v in zip(self.indices, self.vectors)],
        }, sort_keys=True)

    # -- structure ---------------------------------------------------------

    @property
    def n_terms(self) -> int:
        return len(self.indices)

    def is_zero(self) -> bool:
        return self.n_terms == 0

    # -- linear operations -------------------------------------------------

    def scaled(self, c: float) -> "VecSeq":
        return VecSeq(self.dim, self.indices, self.vectors * float(c))

    def _merge(self, other: "VecSeq", sign: float) -> "VecSeq":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        idx = sorted(set(self.indices) | set(other.indices))
        pos = {i: r for r, i in enumerate(idx)}
        out = np.zeros((len(idx), self.dim))
        for i, v in zip(self.indices, self.vectors):
            out[pos[i]] += v
        for i, v in zip(other.indices, other.vectors):
            out[pos[i]] += sign * v
        return VecSeq(self.dim, tuple(idx), out)

    def add(self, other: "VecSeq") -> "VecSeq":
        return self._merge(other, 1.0)

    def sub(self, other: "VecSeq") -> "VecSeq":
        return self._merge(other, -1.0)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __mul__(self, c):
        return self.scaled(c)

    __rmul__ = __mul__


# --------------------------------------------------------------------------
# modulars and norms


def _check_monotone(m) -> None:
    """Norms require the modular to be nondecreasing along rays."""
    if not m.radially_monotone:
        raise ValueError("luxemburg norm needs a radially monotone map; "
                         f"{m.label!r} is not flagged as one")


def modular(m, s: VecSeq, rho: float = 1.0) -> float:
    """sum_i m(v_i / rho)."""
    if not rho > 0:
        raise ValueError("scale rho must be positive")
    if s.dim != m.dim:
        raise ValueError("sequence dimension does not match the map")
    return float(m.evaluate(s.vectors / rho).sum())


REL_TOL = 1e-12    # relative bracket width at which the search stops
MAX_POW = 64       # the bracket search ranges over start * 2**[-64, 64]
# the bracket spans a factor 2, log bisection closes it in 40 steps, and a
# false position is taken only while bisection would still close in twice that
MAX_STEPS = 2 * math.ceil(math.log2(math.log(2.0) / REL_TOL))
_INSET = math.log1p(REL_TOL / 2.0)   # least log-distance of a step from an end
_EPS = math.log1p(REL_TOL)           # the log-width at which a row closes


def _log(val: np.ndarray) -> np.ndarray:
    """log of a modular; 0 gives -inf without a warning."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(val)


def _bisections(width: np.ndarray) -> np.ndarray:
    """Log bisection steps that close a bracket of log-width width."""
    with np.errstate(divide="ignore"):
        return np.ceil(np.log2(width / _EPS))


def _bracket_bisect(modular_fn, start: np.ndarray) -> np.ndarray:
    """Solve modular_fn(rho, rows) = 1 per row, rho in start * 2**[-64, 64].

    modular_fn(rho, rows) returns the modular of the selected rows at the
    matching scales and must be nonincreasing in rho.  A doubling or
    halving search from start brackets each root within a factor 2, with
    modular(lo) > 1 >= modular(hi).  Each step then takes the Illinois
    false position of (log rho, log modular) between the ends, at least
    REL_TOL/2 inside them: an end kept on two steps running has its log
    modular halved (Dowell and Jarratt, BIT 11, 1971).  A row takes the
    geometric midpoint instead when an end's log modular is not finite,
    or when its steps so far plus the bisection steps that close its
    bracket from here would exceed twice the bisection steps that close
    it from where it was bracketed; so no row takes more than twice the
    steps of bisection.  Rows leave the active set as soon as they bracket
    or converge, so late iterations touch only the stragglers.  The result
    is the geometric midpoint lo * sqrt(hi / lo), which does not underflow.
    """
    lo = np.array(start, dtype=float)
    f_lo = modular_fn(lo, np.arange(lo.size))
    hi, f_hi = lo.copy(), f_lo.copy()
    # double hi until modular(hi) <= 1, keeping the last scale above 1 as lo
    rows = np.flatnonzero(f_lo > 1.0)
    doublings = 0
    while rows.size:
        if doublings >= MAX_POW:
            raise BracketError(
                "no scale with modular <= 1 within 2**64 of the starting guess")
        lo[rows], f_lo[rows] = hi[rows], f_hi[rows]
        hi[rows] *= 2.0
        f_hi[rows] = modular_fn(hi[rows], rows)
        doublings += 1
        rows = rows[f_hi[rows] > 1.0]
    # halve lo until modular(lo) > 1, keeping the last scale at or below 1 as hi
    rows = np.flatnonzero(f_lo < 1.0)
    halvings = 0
    while rows.size:
        if halvings >= MAX_POW:
            raise BracketError(
                "no scale with modular > 1 within 2**-64 of the starting guess")
        hi[rows], f_hi[rows] = lo[rows], f_lo[rows]
        lo[rows] /= 2.0
        f_lo[rows] = modular_fn(lo[rows], rows)
        halvings += 1
        rows = rows[f_lo[rows] <= 1.0]
    hit = f_hi == 1.0            # an end that solves the equation outright
    lo[hit] = hi[hit]
    # invariant: modular(lo) > 1 >= modular(hi); ends[0] is lo, ends[1] hi
    ends = np.stack([lo, hi])
    lo, hi = ends
    weight = _log(np.stack([f_lo, f_hi]))    # per end, halved when kept
    moved = np.full(lo.size, -1)             # the end the last step replaced
    budget = 2.0 * _bisections(np.log(hi / lo))
    rows = np.arange(lo.size)
    steps = 0
    while True:
        rows = rows[hi[rows] / lo[rows] - 1.0 > REL_TOL]
        if rows.size == 0:
            return lo * np.sqrt(hi / lo)
        if steps >= MAX_STEPS:
            raise BracketError(
                f"log bisection still open after {MAX_STEPS} steps on "
                f"{rows.size} rows, e.g. lo={lo[rows[0]]!r}, "
                f"hi={hi[rows[0]]!r}")
        steps += 1
        a, ratio = lo[rows], hi[rows] / lo[rows]
        width = np.log(ratio)
        mid = a * np.sqrt(ratio)
        ga, gb = weight[:, rows]
        interp = ((steps + _bisections(width) <= budget[rows])
                  & np.isfinite(ga) & np.isfinite(gb))
        ga, gb, w = ga[interp], gb[interp], width[interp]
        t = np.clip(ga / (ga - gb) * w, _INSET, w - _INSET)
        mid[interp] = a[interp] * np.exp(t)
        val = modular_fn(mid, rows)
        end = np.where(val > 1.0, 0, 1)
        ends[end, rows] = mid
        weight[end, rows] = _log(val)
        hit = val == 1.0
        ends[:, rows[hit]] = mid[hit]
        # Illinois: the end kept on this step and the last one is halved
        twice = moved[rows] == end
        weight[1 - end[twice], rows[twice]] *= 0.5
        moved[rows] = end


def _homogeneous_root(modular_fn, start: np.ndarray, p: float) -> np.ndarray:
    """Solve modular_fn(rho, rows) = 1 per row for a modular of degree p.

    Then modular(rho) = modular(start) (start / rho)**p, so the root is
    start * modular(start)**(1/p); a row whose modular(start) is 1 keeps
    start exactly, and one whose modular(start) is 0 or not finite, which
    gives no positive scale, takes start in its place.  That scale is
    returned only where one stacked evaluation finds
    modular(lo) > 1 >= modular(hi) at lo, hi = root * (1 -/+ REL_TOL/4),
    the contract of _bracket_bisect at half its width; every other row is
    solved by _bracket_bisect, started at that scale.
    """
    rows = np.arange(start.size)
    root = start * modular_fn(start, rows) ** (1.0 / p)
    root = np.where(np.isfinite(root) & (root > 0.0), root, start)
    inset = REL_TOL / 4.0
    ends = modular_fn(
        np.concatenate([root * (1.0 - inset), root * (1.0 + inset)]),
        np.concatenate([rows, rows]))
    bad = np.flatnonzero(~((ends[:rows.size] > 1.0)
                           & (ends[rows.size:] <= 1.0)))
    if bad.size:
        root[bad] = _bracket_bisect(
            lambda rho, r: modular_fn(rho, bad[r]), root[bad])
    return root


def compact_rows(*arrays: np.ndarray) -> tuple:
    """Each row's shared support moved left, cells kept in order.

    Arrays of shape (B, d, ...) -> arrays of shape (B, w, ...), where a
    cell is kept when it is nonzero in any of the arrays and w is the
    widest row's count of kept cells; the rest of a row is zero.
    """
    keep = np.zeros(arrays[0].shape[:2], dtype=bool)
    for a in arrays:
        keep |= np.any(a != 0.0, axis=tuple(range(2, a.ndim)))
    flat = np.flatnonzero(keep)
    count = keep.sum(axis=1)
    width = count.max(initial=0)
    # kept cell i of the flat order, the j-th of row r, goes to r * width + j
    dest = np.arange(flat.size) + np.repeat(
        np.arange(count.size) * width - (np.cumsum(count) - count), count)
    out = tuple(np.zeros((a.shape[0], width) + a.shape[2:]) for a in arrays)
    for o, a in zip(out, arrays):
        cells = (-1,) + a.shape[2:]
        o.reshape(cells)[dest] = a.reshape(cells)[flat]
    return out


def luxemburg_norm_batch(m, vectors: np.ndarray) -> np.ndarray:
    """Luxemburg norms of a dense batch, shape (B, k, dim) -> (B,).

    Zero cells anywhere in a row are dropped before solving (the map
    sends 0 to 0), so ragged collections can be padded to a common length,
    and the cost scales with the widest row's nonzero count, not with k.
    A row's norm does not depend on the other rows of the batch.
    A map whose ``degree`` is not None takes its closed-form root, in two
    evaluations of the batch, wherever one of them brackets it; every
    other row is searched by _bracket_bisect.
    A row with a non-finite entry, or whose norm exceeds the float64
    range, raises NumericSignal naming the rows.
    """
    _check_monotone(m)
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 3 or vectors.shape[-1] != m.dim:
        raise ValueError("batch must have shape (B, k, dim) matching the map")
    out = np.zeros(vectors.shape[0])
    live = np.any(vectors != 0.0, axis=(1, 2))
    if not live.any():
        return out
    work, = compact_rows(vectors[live])
    top = np.abs(work).max(axis=(1, 2))
    if not np.isfinite(top).all():
        bad = np.flatnonzero(live)[~np.isfinite(top)]
        raise NumericSignal(
            f"Luxemburg norm input is non-finite in {bad.size} of "
            f"{out.size} rows, first rows {bad[:5].tolist()}")
    e = np.frexp(top)[1]
    work = np.ldexp(work, -e[:, None, None])

    def modular_fn(rho: np.ndarray, rows: np.ndarray) -> np.ndarray:
        vals = m.evaluate(work[rows] / rho[:, None, None])
        return np.add.accumulate(vals, axis=-1)[:, -1]

    start = np.linalg.norm(work, axis=-1).max(axis=-1)
    p = getattr(m, "degree", None)
    with np.errstate(over="ignore"):
        root = (_bracket_bisect(modular_fn, start) if p is None
                else _homogeneous_root(modular_fn, start, p))
        out[live] = np.ldexp(root, e)
    big = np.flatnonzero(np.isinf(out))
    if big.size:
        raise NumericSignal(
            f"Luxemburg norm overflows float64 in {big.size} of {out.size} "
            f"rows, first rows {big[:5].tolist()}")
    return out


def luxemburg_norm(m, s: VecSeq) -> float:
    """Smallest rho > 0 with modular(s, rho) <= 1 (0 for the zero sequence)."""
    if s.dim != m.dim:
        raise ValueError("sequence dimension does not match the map")
    return float(luxemburg_norm_batch(m, s.vectors[None, :, :])[0])
