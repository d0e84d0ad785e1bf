import re
from pathlib import Path

import numpy as np
import pytest

import twistnorm
from twistnorm import sampling, triangle_violation


def keyed(seed, key):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, key])))


@pytest.mark.parametrize("total", [0, 1, 999, 1000, 1001, 3005])
def test_chunk_sizes_cover_total(monkeypatch, total):
    monkeypatch.setattr(sampling, "CHUNK", 1000)
    sizes = [n for _, n in sampling.chunks(5, total)]
    assert sum(sizes) == total
    assert all(1 <= n <= 1000 for n in sizes)
    assert all(n == 1000 for n in sizes[:-1])


def test_chunk_streams_are_keyed_by_seed_and_offset(monkeypatch):
    monkeypatch.setattr(sampling, "CHUNK", 10)
    for i, (rng, n) in enumerate(sampling.chunks(42, 35, offset=77)):
        assert np.array_equal(rng.random(n), keyed(42, 77 + i).random(n))
    assert np.array_equal(sampling.rng(3).random(4), np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(3))).random(4))


@pytest.mark.parametrize("lo, hi, a, b", [(1e-4, 1e2, -4.0, 6.0),
                                          (1e-2, 1e2, -2.0, 4.0),
                                          (1e-2, 10.0, -2.0, 3.0)])
def test_signed_log_uniform_matches_decade_formula(lo, hi, a, b):
    got = sampling.signed_log_uniform(keyed(9, 1), (500, 3), lo, hi)
    g = keyed(9, 1)
    mags = 10.0 ** (a + b * g.random((500, 3)))
    signs = np.where(g.random((500, 3)) < 0.5, -1.0, 1.0)
    assert np.array_equal(got, signs * mags)


def test_random_rows_support_and_range():
    rows = sampling.random_rows(keyed(1, 0), 2000, 16)
    support = np.count_nonzero(rows, axis=1)
    assert support.min() == 1 and support.max() == 8
    mags = np.abs(rows[rows != 0.0])
    assert mags.min() >= 1e-4 and mags.max() <= 1e2
    assert (rows < 0).any() and (rows > 0).any()


def test_triangle_violation_is_a_max_over_keyed_chunks(monkeypatch, t2_pipe):
    norm = t2_pipe.norm
    monkeypatch.setattr(sampling, "CHUNK", 1000)
    per_chunk = []
    for i, n in enumerate((1000, 1000, 500)):
        g = keyed(11, 77 + i)
        shape = (n, norm.dim + 1)
        p, q = (10.0 ** (-2.0 + 4.0 * g.random(shape))
                * np.where(g.random(shape) < 0.5, -1.0, 1.0)
                for _ in range(2))
        lhs = norm.evaluate(p + q)
        rhs = norm.evaluate(p) + norm.evaluate(q)
        per_chunk.append(float(((lhs - rhs) / rhs).max()))
    assert triangle_violation(norm, 2500, 11) == max(0.0, *per_chunk)


def test_only_sampling_builds_a_generator():
    pattern = re.compile(r"\b(SeedSequence|PCG64|default_rng)\b")
    src = Path(twistnorm.__file__).parent
    offenders = [f.name for f in sorted(src.glob("*.py"))
                 if f.name != "sampling.py" and pattern.search(f.read_text())]
    assert offenders == []
