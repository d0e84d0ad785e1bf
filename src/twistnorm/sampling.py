"""Seeded sampling: keyed PCG64 streams, fixed-size chunks, and the laws.

Every random draw in twistnorm comes from ``rng(seed, *keys)``, a PCG64
generator over ``SeedSequence([seed, *keys])``.  A long sample is cut
into chunks of at most ``CHUNK`` draws, and chunk ``i`` draws from its own
stream ``rng(seed, offset + i)``.  A result therefore depends on the seed,
the offset and ``CHUNK``, but not on the order in which chunks run.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["CHUNK", "rng", "chunks", "signed_log_uniform", "random_rows"]

CHUNK = 65536


def rng(seed: int, *keys: int) -> np.random.Generator:
    """The PCG64 stream keyed by ``(seed, *keys)``."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(seed), *(int(k) for k in keys)])))


def chunks(seed: int, total: int, offset: int = 0):
    """Yield ``(rng(seed, offset + i), n)`` for chunks of n <= CHUNK draws."""
    for i, start in enumerate(range(0, total, CHUNK)):
        yield rng(seed, offset + i), min(CHUNK, total - start)


def signed_log_uniform(rng: np.random.Generator, shape, lo: float,
                       hi: float) -> np.ndarray:
    """Magnitudes log-uniform in [lo, hi] with uniform signs.

    The magnitudes are drawn first, then the signs.
    """
    mag = 10.0 ** (math.log10(lo)
                   + (math.log10(hi) - math.log10(lo)) * rng.random(shape))
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return sign * mag


def random_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Dense rows with support of size <= 8 inside {1..dim}.

    Magnitudes are log-uniform in [1e-4, 1e2] with uniform signs.
    """
    k = min(8, dim)
    out = np.zeros((n, dim))
    sizes = rng.integers(1, k + 1, size=n)
    cols = np.argsort(rng.random((n, dim)), axis=1)[:, :k]
    mask = np.arange(k)[None, :] < sizes[:, None]
    vals = np.where(mask, signed_log_uniform(rng, (n, k), 1e-4, 1e2), 0.0)
    np.put_along_axis(out, cols, vals, axis=1)
    return out
