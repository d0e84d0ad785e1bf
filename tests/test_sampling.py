import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import twistnorm
from twistnorm import (build_space, build_star_norm, cli,
                       equivalence_certificate, identity_theta,
                       kalton_peck_map, quasi_linearity_constant,
                       quasi_triangle_constant, quasiconvexity_constant,
                       sampling, triangle_violation)

PURPOSES = (sampling.TRIANGLE, sampling.QUASI_LINEAR, sampling.QUASI_TRIANGLE,
            sampling.EQUIVALENCE, sampling.QUASICONVEX, sampling.SUFF,
            sampling.PROPERTY_M, sampling.STAR_RAYS, sampling.STAR_TUPLES,
            sampling.STAR_PROBES)


def keyed(seed, key):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, key])))


@pytest.mark.parametrize("total", [0, 1, 999, 1000, 1001, 3005])
def test_chunk_sizes_cover_total(monkeypatch, total):
    # the reader's slices of at most CHUNK rows (read at call time), or of
    # a size passed in, stack to the rows of one draw of the keyed stream
    monkeypatch.setattr(sampling, "CHUNK", 1000)
    whole = keyed(5, 3).random((4321 + total, 7))
    for first, size, most in ((0, None, 1000), (4321, 333, 333)):
        got = list(sampling.slices(5, 3, first, total, 7, size))
        parts = [p for _, p in got]
        assert [start for start, _ in got] == list(range(0, total, most))
        assert all(1 <= len(p) <= most for p in parts)
        assert np.array_equal(np.concatenate([np.empty((0, 7)), *parts]),
                              whole[first:first + total])


def test_slices_are_rows_of_one_keyed_stream():
    whole = keyed(42, 77).random((10_000, 24))
    for start, n in [(0, 4096), (4096, 4096), (8192, 1808), (137, 999)]:
        assert np.array_equal(sampling.uniforms(42, 77, start, n, 24),
                              whole[start:start + n])
    assert np.array_equal(sampling.rng(3).random(4), np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(3))).random(4))
    assert np.array_equal(sampling.rng(np.int64(5), np.int32(1)).random(3),
                          keyed(5, 1).random(3))
    # one stream per purpose, keys 1 to 10
    assert sorted(PURPOSES) == list(range(1, 11))


@pytest.mark.parametrize("seed", [1.7, True, 2.0, "3"])
def test_a_seed_that_is_not_an_integer_raises(seed):
    # int() would truncate it: rng(1.7) and rng(True) drew seed 1
    with pytest.raises(ValueError, match=re.escape(repr(seed))):
        sampling.rng(seed)
    with pytest.raises(ValueError, match="key must be an integer"):
        sampling.rng(5, seed)


def test_triangle_violation_rejects_a_float_seed(t2_pipe):
    # it read seed 5 at 5.9
    with pytest.raises(ValueError, match="seed must be an integer, got 5.9"):
        triangle_violation(t2_pipe.norm, 100, 5.9)


def test_star_norm_rejects_a_float_seed(t2_pipe):
    # it drew seed 1234 and reported "seed": 1234.6
    with pytest.raises(ValueError, match="seed must be an integer, got 1234.6"):
        build_star_norm(t2_pipe.norm.g, rng_seed=1234.6)


@pytest.mark.parametrize("case, bad", [
    ("quasilinear", 0), ("quasitriangle", -5), ("equivalence", 0),
    ("quasiconvex", -1.0), ("quasiconvex", math.inf), ("triangle", True),
], ids=["quasilinear-dim-0", "quasitriangle-dim--5", "equivalence-dim-0",
        "quasiconvex-box--1", "quasiconvex-box-inf", "triangle-trials-True"])
def test_sampled_certificates_reject_invalid_sizes(case, bad, f2, z2_noenv,
                                                   t2_pipe):
    # a row dimension below 1 drew no rows or rows of negative width, a
    # box off (0, inf) drew points that are not numbers, and a bool ran as
    # one trial
    calls = {
        "quasilinear": lambda: quasi_linearity_constant(z2_noenv, 100, bad, 1),
        "quasitriangle": lambda: quasi_triangle_constant(z2_noenv, 100, bad,
                                                         1),
        "equivalence": lambda: equivalence_certificate(
            build_space(f2, identity_theta(), resolution=9), 100, bad, 1),
        "quasiconvex": lambda: quasiconvexity_constant(
            kalton_peck_map(f2, identity_theta()), 100, 1, halfwidth=bad),
        "triangle": lambda: triangle_violation(t2_pipe.norm, bad, 1),
    }
    with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
        calls[case]()


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


def test_only_sampling_slices_a_sample():
    # CHUNK and word offsets live in sampling: no other module reads CHUNK
    # or advances a generator, in code (docstrings may name CHUNK)
    src = Path(twistnorm.__file__).parent
    offenders = []
    for f in sorted(src.glob("*.py")):
        if f.name == "sampling.py":
            continue
        for node in ast.walk(ast.parse(f.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            if name in ("CHUNK", "advance"):
                offenders.append(f"{f.name}:{node.lineno} {name}")
    assert offenders == []
