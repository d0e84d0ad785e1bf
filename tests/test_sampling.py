import json
import re
from pathlib import Path

import numpy as np
import pytest

import twistnorm
from twistnorm import (build_space, cli, equivalence_certificate,
                       identity_theta, kalton_peck_map,
                       quasi_linearity_constant, quasi_triangle_constant,
                       quasiconvexity_constant, sampling, triangle_violation)

PURPOSES = (sampling.TRIANGLE, sampling.QUASI_LINEAR, sampling.QUASI_TRIANGLE,
            sampling.EQUIVALENCE, sampling.QUASICONVEX, sampling.SUFF,
            sampling.PROPERTY_M)


def keyed(seed, key):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, key])))


@pytest.mark.parametrize("total", [0, 1, 999, 1000, 1001, 3005])
def test_chunk_sizes_cover_total(monkeypatch, total):
    # slices of at most CHUNK rows, as every sampler draws them, stack to
    # the rows of one draw of the keyed stream
    monkeypatch.setattr(sampling, "CHUNK", 1000)
    parts = [sampling.uniforms(5, 3, s, min(sampling.CHUNK, total - s), 7)
             for s in range(0, total, sampling.CHUNK)]
    assert all(1 <= len(p) <= 1000 for p in parts)
    assert np.array_equal(np.concatenate([np.empty((0, 7)), *parts]),
                          keyed(5, 3).random((total, 7)))


def test_slices_are_rows_of_one_keyed_stream():
    whole = keyed(42, 77).random((10_000, 24))
    for start, n in [(0, 4096), (4096, 4096), (8192, 1808), (137, 999)]:
        assert np.array_equal(sampling.uniforms(42, 77, start, n, 24),
                              whole[start:start + n])
    assert np.array_equal(sampling.rng(3).random(4), np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(3))).random(4))
    # one stream per purpose; key 0 would be the keyless stream rng(seed)
    assert len(set(PURPOSES)) == len(PURPOSES) and min(PURPOSES) >= 1
    assert np.array_equal(keyed(3, 0).random(4), sampling.rng(3).random(4))


def test_a_stream_reads_on_from_its_word_offset():
    # a cursor opened at word k draws what one generator from word 0 draws
    # after k words, whatever shapes its draws take
    whole = keyed(42, 77).random(5000)
    cursor = sampling.stream(42, 77, 1234)
    assert np.array_equal(cursor.random((3, 7)).ravel(), whole[1234:1255])
    assert np.array_equal(cursor.random(100), whole[1255:1355])
    assert np.array_equal(sampling.uniforms(42, 77, 5, 9, 11),
                          whole[55:154].reshape(9, 11))
    # build_star_norm's keyless stream is key STAR_NORM of the same seed
    assert sampling.STAR_NORM not in PURPOSES
    assert np.array_equal(sampling.stream(3, sampling.STAR_NORM, 10).random(4),
                          sampling.rng(3).random(14)[10:])


@pytest.mark.parametrize("lo, hi, a, b", [(1e-4, 1e2, -4.0, 6.0),
                                          (1e-2, 1e2, -2.0, 4.0),
                                          (1e-2, 10.0, -2.0, 3.0)])
def test_signed_log_uniform_matches_decade_formula(lo, hi, a, b):
    u, s = keyed(9, 1).random((2, 500, 3))
    got = sampling.signed_log_uniform(u, s, lo, hi)
    assert np.array_equal(got, np.where(s < 0.5, -1.0, 1.0)
                          * 10.0 ** (a + b * u))
    # the law: log10 magnitudes spread over [a, a + b], signs split evenly
    logs = np.log10(np.abs(got))
    assert a <= logs.min() < a + 0.1 * b and a + 0.9 * b < logs.max() <= a + b
    assert 0.45 < np.mean(got < 0) < 0.55


def test_random_rows_support_and_range():
    u = keyed(1, 0).random((2000, sampling.row_width(16)))
    rows = sampling.random_rows(u, 16)
    support = np.count_nonzero(rows, axis=1)
    assert np.array_equal(support, 1 + (8 * u[:, 0]).astype(int))
    assert support.min() == 1 and support.max() == 8
    mags = np.abs(rows[rows != 0.0])
    assert mags.min() >= 1e-4 and mags.max() <= 1e2
    assert (rows < 0).any() and (rows > 0).any()
    # a row of dimension 16 reads a prefix of a wider row
    wide = np.concatenate([u, keyed(1, 1).random((2000, 5))], axis=1)
    assert np.array_equal(sampling.random_rows(wide, 16), rows)


def test_triangle_violation_is_a_max_over_keyed_chunks(monkeypatch, t2_pipe):
    norm = t2_pipe.norm
    monkeypatch.setattr(sampling, "CHUNK", 1000)
    w = norm.dim + 1
    u = keyed(11, sampling.TRIANGLE).random((2500, 4 * w))
    per_chunk = []
    for start in (0, 1000, 2000):
        c = u[start:start + 1000]
        p, q = (10.0 ** (-2.0 + 4.0 * c[:, j:j + w])
                * np.where(c[:, j + 2 * w:j + 3 * w] < 0.5, -1.0, 1.0)
                for j in (0, w))
        lhs = norm.evaluate(p + q)
        rhs = norm.evaluate(p) + norm.evaluate(q)
        per_chunk.append(float(((lhs - rhs) / rhs).max()))
    assert triangle_violation(norm, 2500, 11) == max(0.0, *per_chunk)


def sampled_results(f2, space, small, pipe, tmp_path):
    """Every sampled certificate, on small budgets with seed 5."""
    ql = quasi_linearity_constant(space, 300, 64, 5)
    quasiconvex = quasiconvexity_constant(
        kalton_peck_map(f2, identity_theta()), 300, 5)
    got = {
        "quasilinear": (ql.c_hat, ql.per_dim, ql.witness),
        "quasitriangle": quasi_triangle_constant(space, 300, 64, 5),
        "quasiconvex": (quasiconvex.l_hat, quasiconvex.witness_report()),
        "triangle": triangle_violation(pipe.norm, 300, 5),
        "equivalence": equivalence_certificate(small, 100, 16, 5)["ratio"],
    }
    for kind in ("suff", "property-m"):
        out = tmp_path / f"{kind}.json"
        assert cli.main(["certify", kind, "--pipeline", "r2-pipeline",
                         "--trials", "30", "--seed", "5",
                         "--out", str(out)]) == 0
        got[kind] = json.loads(out.read_text())["body"]
    return got


def test_results_do_not_depend_on_chunk(monkeypatch, tmp_path, f2, z2_noenv,
                                        t2_pipe):
    small = build_space(f2, identity_theta(), halfwidth=2.0, resolution=9)
    got = {}
    for chunk in (7, 1000, 65536):
        monkeypatch.setattr(sampling, "CHUNK", chunk)
        got[chunk] = sampled_results(f2, z2_noenv, small, t2_pipe, tmp_path)
    assert got[7] == got[1000] == got[65536]


def test_only_sampling_builds_a_generator():
    pattern = re.compile(r"\b(SeedSequence|PCG64|default_rng)\b")
    src = Path(twistnorm.__file__).parent
    offenders = [f.name for f in sorted(src.glob("*.py"))
                 if f.name != "sampling.py" and pattern.search(f.read_text())]
    assert offenders == []
