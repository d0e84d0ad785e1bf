"""Seeded sampling: one keyed stream per purpose, read by rows, and the laws.

Every random draw in twistnorm is a row of a keyed stream: the PCG64
generator over ``SeedSequence([seed, key])``, one word per uniform.  Row i
of a sample, W uniforms wide, is the words ``[i·W, (i+1)·W)`` of its
``(seed, purpose)`` stream, and ``slices`` reads a sample in slices of at
most ``CHUNK`` rows (or another size), so no row depends on the slice
that draws it.  Purpose keys run from 1 to 10; the star norm's checks
(a), (b) and (d) have one each.
"""

from __future__ import annotations

import math

import numpy as np

from .seqspace import strict_int

__all__ = ["CHUNK", "rng", "uniforms", "slices", "row_width",
           "signed_log_uniform", "random_rows"]

CHUNK = 65536      # rows per slice, a memory bound
(TRIANGLE, QUASI_LINEAR, QUASI_TRIANGLE, EQUIVALENCE, QUASICONVEX, SUFF,
 PROPERTY_M, STAR_RAYS, STAR_TUPLES, STAR_PROBES) = range(1, 11)


def rng(seed: int, *keys: int) -> np.random.Generator:
    """The PCG64 stream keyed by ``(seed, *keys)``.  A seed or key that is
    not an integer raises ValueError: int() would truncate it."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [strict_int(seed, "seed"), *(strict_int(k, "key") for k in keys)])))


def uniforms(seed: int, key: int, start: int, n: int,
             width: int) -> np.ndarray:
    """Rows ``start .. start + n`` of the ``(seed, key)`` stream, each row
    ``width`` uniforms in [0, 1): the stream advanced to word
    ``start * width``."""
    g = rng(seed, key)
    g.bit_generator.advance(start * width)
    return g.random((n, width))


def slices(seed: int, key: int, first: int, n: int, width: int,
           size: int | None = None):
    """Rows ``first .. first + n`` of the ``(seed, key)`` stream, ``width``
    uniforms each, in slices of at most ``size`` rows (``CHUNK`` when
    None, read at call time).  Yields ``(start, rows)``, ``start`` the
    index of the slice's first row in the sample, counted from ``first``."""
    size = CHUNK if size is None else size
    for start in range(0, n, size):
        yield start, uniforms(seed, key, first + start,
                              min(size, n - start), width)


def row_width(dim: int) -> int:
    """The uniforms ``random_rows`` reads per row of dimension ``dim``, an
    integer >= 1 (else ValueError naming it)."""
    if strict_int(dim, "row dimension") < 1:
        raise ValueError(f"row dimension must be >= 1, got {dim!r}")
    return 1 + dim + 2 * min(8, dim)


def signed_log_uniform(u_mag, u_sign, lo: float, hi: float) -> np.ndarray:
    """Magnitudes log-uniform in [lo, hi], negative where u_sign < 1/2."""
    a, b = math.log10(lo), math.log10(hi)
    return np.copysign(10.0 ** (a + (b - a) * u_mag), u_sign - 0.5)


def random_rows(u: np.ndarray, dim: int) -> np.ndarray:
    """Dense rows with support of size <= 8 inside {1..dim}, one per row of u.

    A row reads ``row_width(dim)`` uniforms, k = min(8, dim): the size
    1 + floor(k·u0), dim whose argsort orders the support, k magnitudes in
    [1e-4, 1e2] and k signs."""
    k = min(8, dim)
    out = np.zeros((u.shape[0], dim))
    cols = np.argsort(u[:, 1:1 + dim], axis=1)[:, :k]
    mask = np.arange(k) < 1 + (k * u[:, :1]).astype(int)    # the size
    vals = signed_log_uniform(u[:, 1 + dim:1 + dim + k],
                              u[:, 1 + dim + k:1 + dim + 2 * k], 1e-4, 1e2)
    np.put_along_axis(out, cols, np.where(mask, vals, 0.0), axis=1)
    return out
