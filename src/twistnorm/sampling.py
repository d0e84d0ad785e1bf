"""Seeded sampling: one keyed stream per purpose, read by rows, and the laws.

Every random draw in twistnorm reads a ``stream(seed, key, offset)``: the
PCG64 generator over ``SeedSequence([seed, key])``, advanced to word
``offset``, one word per uniform.  Row i of a sample, W uniforms wide, is
the words ``[i·W, (i+1)·W)`` of its ``(seed, purpose)`` stream whichever
slice of at most ``CHUNK`` rows draws it, so no sample depends on
``CHUNK``.  Purpose keys start at 1.  Key 0 is the keyless stream
``rng(seed)``, which build_star_norm reads: each of its regions through a
cursor opened at the region's first word.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["CHUNK", "rng", "stream", "uniforms", "row_width",
           "signed_log_uniform", "random_rows"]

CHUNK = 65536      # rows per slice, a memory bound
STAR_NORM = 0      # the keyless stream rng(seed)
(TRIANGLE, QUASI_LINEAR, QUASI_TRIANGLE, EQUIVALENCE, QUASICONVEX, SUFF,
 PROPERTY_M) = range(1, 8)


def rng(seed: int, *keys: int) -> np.random.Generator:
    """The PCG64 stream keyed by ``(seed, *keys)``."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(seed), *(int(k) for k in keys)])))


def stream(seed: int, key: int, offset: int) -> np.random.Generator:
    """The ``(seed, key)`` stream advanced to word ``offset``: a cursor
    whose draws read on from there, one word per uniform."""
    g = rng(seed, key)
    g.bit_generator.advance(offset)
    return g


def uniforms(seed: int, key: int, start: int, n: int,
             width: int) -> np.ndarray:
    """Rows ``start .. start + n`` of the ``(seed, key)`` stream, each row
    ``width`` uniforms in [0, 1)."""
    return stream(seed, key, start * width).random((n, width))


def row_width(dim: int) -> int:
    """The uniforms ``random_rows`` reads per row of dimension ``dim``."""
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
