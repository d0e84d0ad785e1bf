import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistnorm
from twistnorm import (BlockSeq, NumericSignal, VecSeq, build_pipeline, cli,
                       equivalence_certificate, from_preset, lambda_norm,
                       match_lambda_norm, prefix_substitution_check, renorm,
                       sampling, scalarfn, suff_criterion_check)


def run(*argv):
    return cli.main(list(argv))


def body_of(path):
    doc = json.loads(path.read_text())
    assert set(doc) == {"body", "meta"}
    assert "timestamp" in doc["meta"]
    return doc["body"]


@pytest.fixture()
def seq_file(tmp_path):
    p = tmp_path / "seq.json"
    p.write_text(VecSeq.from_values([3.0, 4.0]).to_json())
    return p


@pytest.fixture()
def pair_file(tmp_path):
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(
        {"dim": 2, "entries": [[1, [1.0, 0.0]]]}))
    return p


@pytest.fixture()
def blocks_file(tmp_path):
    p = tmp_path / "blocks.json"
    p.write_text(BlockSeq(1, [[1.0]]).to_json())
    return p


# -- value commands -----------------------------------------------------------

def test_norm_scalar_sequence(seq_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run("norm", "--preset", "zp:2", "--seq", str(seq_file),
               "--out", str(out)) == 0
    assert "5.0" in capsys.readouterr().out
    body = body_of(out)
    assert body["kind"] == "luxemburg"
    assert body["norm"] == pytest.approx(5.0, rel=1e-11)


def test_norm_pair_file_dispatches_to_twisted(pair_file, tmp_path):
    out = tmp_path / "report.json"
    assert run("norm", "--preset", "z2", "--seq", str(pair_file),
               "--out", str(out)) == 0
    body = body_of(out)
    assert body["kind"] == "twisted"
    assert body["norm"] == pytest.approx(1.0, rel=1e-12)


def test_twisted_norm_command(pair_file, tmp_path):
    out = tmp_path / "report.json"
    assert run("twisted-norm", "--pair", str(pair_file),
               "--out", str(out)) == 0
    assert body_of(out)["norm"] == pytest.approx(1.0, rel=1e-12)


def test_lambda_norm_command(blocks_file, tmp_path):
    out = tmp_path / "report.json"
    assert run("lambda-norm", "--pipeline", "t2-pipeline",
               "--blocks", str(blocks_file), "--out", str(out)) == 0
    body = body_of(out)
    assert body["lambda_norm"] == pytest.approx(math.sqrt(2.0), rel=1e-9)
    assert len(body["values"]) == 1


def test_envelope_command(tmp_path):
    csv = tmp_path / "grid.csv"
    out = tmp_path / "report.json"
    assert run("envelope", "--preset", "z2", "--resolution", "9",
               "--box", "1.0", "--csv", str(csv), "--out", str(out)) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,value,envelope"
    assert len(lines) == 1 + 81
    body = body_of(out)
    assert body["support_max"] <= 3
    assert run("envelope", "--resolution", "10") == 2


def test_envelope_of_zp35_is_certified_at_resolution_9(tmp_path):
    # the lifted values run from 2.9e-11 to 3.5e18; a floating-point hull
    # finds them flat, the exact predicate does not
    csv = tmp_path / "grid.csv"
    out = tmp_path / "report.json"
    assert run("envelope", "--preset", "zp:35", "--resolution", "9",
               "--csv", str(csv), "--out", str(out)) == 0
    body = body_of(out)
    assert body["support_max"] <= 3
    rows = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert np.all(rows[:, 3] <= rows[:, 2])


# -- certificates -------------------------------------------------------------

def test_certify_quasiconvex_passes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run("certify", "quasiconvex", "--preset", "z2",
               "--trials", "3000", "--out", str(a)) == 0
    assert "PASS" in capsys.readouterr().out
    assert run("certify", "quasiconvex", "--preset", "z2",
               "--trials", "3000", "--out", str(b)) == 0
    body = body_of(a)
    assert body["pass"] is True
    assert 1.0 < body["L_hat"] <= body["bound"] + 1e-9
    # bodies are byte-identical across reruns of the same configuration
    assert json.dumps(body, sort_keys=True) == \
        json.dumps(body_of(b), sort_keys=True)


def test_certify_unbounded_type_exits_three(capsys):
    assert run("certify", "quasiconvex", "--preset", "zp:2",
               "--type-p", "2.5", "--trials", "10") == 3


def test_certify_triangle_and_suff(tmp_path):
    out = tmp_path / "t.json"
    assert run("certify", "triangle", "--pipeline", "t2-pipeline",
               "--trials", "5000", "--out", str(out)) == 0
    body = body_of(out)
    assert body["max_violation"] <= 1e-10
    assert run("certify", "suff", "--pipeline", "t2-pipeline",
               "--trials", "40", "--out", str(out)) == 0
    body = body_of(out)
    assert body["min_margin"] >= -1e-9
    assert body["steps_checked"] > 0


def test_certify_property_m(tmp_path):
    out = tmp_path / "m.json"
    assert run("certify", "property-m", "--pipeline", "t2-pipeline",
               "--trials", "25", "--out", str(out)) == 0
    assert body_of(out)["max_difference"] <= 1e-9


def test_certify_quasilinear(tmp_path):
    out = tmp_path / "q.json"
    assert run("certify", "quasilinear", "--preset", "z2",
               "--trials", "3000", "--dim-max", "64",
               "--out", str(out)) == 0
    body = body_of(out)
    assert body["c_hat"] > 0.2
    assert body["dim_spread"] <= 2.0


def test_quasilinear_per_dim_keys_in_string_order(tmp_path):
    # the body's int dimension keys become strings before sort_keys sorts
    # them, so the report reads "100" before "16"
    out = tmp_path / "r.json"
    assert run("certify", "quasilinear", "--trials", "30", "--dim-max", "100",
               "--out", str(out)) == 0
    assert list(body_of(out)["per_dim"]) == ["100", "16", "64"]


def test_certify_equivalence(tmp_path):
    out = tmp_path / "e.json"
    assert run("certify", "equivalence", "--preset", "z2",
               "--trials", "600", "--resolution", "9", "--dim-max", "32",
               "--out", str(out)) == 0
    body = body_of(out)
    assert body["stable"] is True
    assert 0 < body["ratio"][0] <= body["ratio"][1] < math.inf


@pytest.mark.parametrize("argv, certifications", [
    (("norm", "--preset", "zp:3", "--seq", "{seq}"), 0),
    (("norm", "--preset", "z2", "--seq", "{pair}"), 0),
    (("twisted-norm", "--preset", "kp-softclip:3,1", "--pair", "{pair}"), 0),
    (("envelope", "--resolution", "9", "--csv", "{tmp}/grid.csv"), 0),
    (("certify", "quasilinear", "--trials", "40", "--dim-max", "16"), 0),
    (("certify", "quasiconvex", "--trials", "100"), 1),
    (("certify", "equivalence", "--trials", "40", "--resolution", "9",
      "--dim-max", "16"), 1),
], ids=["norm", "norm-pair", "twisted-norm", "envelope", "quasilinear",
        "quasiconvex", "equivalence"])
def test_commands_certify_only_reported_constants(
        argv, certifications, seq_file, pair_file, tmp_path, monkeypatch):
    # every certify runs the type-constant grid sup exactly once
    calls = []
    grid_sup = scalarfn.estimate_type_constant

    def counted(f, p):
        calls.append(p)
        return grid_sup(f, p)

    monkeypatch.setattr(scalarfn, "estimate_type_constant", counted)
    paths = {"seq": seq_file, "pair": pair_file, "tmp": tmp_path}
    assert run(*(a.format(**paths) for a in argv),
               "--out", str(tmp_path / "report.json")) == 0
    assert len(calls) == certifications


def test_zp35_norm_needs_no_certificate(tmp_path, capsys):
    # certify(power(35), 35) raises UnboundedConstant; the norm reads no
    # constant, so it still answers, while the certificates still raise
    seq = tmp_path / "seq.json"
    seq.write_text(VecSeq.from_values([3.0, -4.0, 0.5]).to_json())
    out = tmp_path / "norm.json"
    assert run("norm", "--preset", "zp:35", "--seq", str(seq),
               "--out", str(out)) == 0
    closed = 4.0 * (1.0 + 0.75 ** 35 + 0.125 ** 35) ** (1.0 / 35.0)
    assert body_of(out)["norm"] == pytest.approx(closed, rel=1e-12)
    capsys.readouterr()
    assert run("certify", "quasiconvex", "--preset", "zp:35",
               "--trials", "10") == 3
    assert "type constant" in capsys.readouterr().err
    assert run("certify", "equivalence", "--preset", "zp:35",
               "--trials", "10", "--resolution", "9", "--dim-max", "16") == 3
    assert "type constant" in capsys.readouterr().err


def test_certify_failure_exits_one(tmp_path, monkeypatch):
    def stub(args):
        return False, {"kind": "triangle", "max_violation": 1.0}
    monkeypatch.setitem(cli._CERTIFIERS, "triangle", stub)
    out = tmp_path / "fail.json"
    assert run("certify", "triangle", "--out", str(out)) == 1
    assert body_of(out)["pass"] is False


# -- renorm -------------------------------------------------------------------

def test_renorm_build_report(tmp_path):
    out = tmp_path / "build.json"
    assert run("renorm", "build", "--pipeline", "t2-pipeline",
               "--trials", "2000", "--out", str(out)) == 0
    body = body_of(out)
    assert body["alpha"] == 0.5
    assert body["M"] == pytest.approx(1.0, abs=1e-9)
    assert body["triangle_max_violation"] <= 1e-10
    assert body["decreasing_ok"] is True
    assert body["N_unit"] == 1.0


def test_renorm_check(blocks_file, tmp_path):
    out = tmp_path / "check.json"
    assert run("renorm", "check", "--pipeline", "t2-pipeline",
               "--blocks", str(blocks_file), "--out", str(out)) == 0
    body = body_of(out)
    assert body["suff_ok"] is True
    assert body["lambda_norm"] == pytest.approx(math.sqrt(2.0), rel=1e-9)


@pytest.mark.parametrize("argv", [("renorm", "check"), ("lambda-norm",)])
def test_block_commands_walk_once(argv, tmp_path, monkeypatch):
    blocks = tmp_path / "blocks.json"
    xi = BlockSeq(1, [[0.3], [-0.2], [0.4]])
    blocks.write_text(xi.to_json())
    calls = _count_walks(monkeypatch)
    out = tmp_path / "report.json"
    assert run(*argv, "--pipeline", "t2-pipeline", "--blocks", str(blocks),
               "--out", str(out)) == 0
    assert calls == [1]
    values = renorm.star_iterate(build_pipeline("t2-pipeline").norm, xi)
    body = body_of(out)
    assert body["values"] == values
    assert body["lambda_norm"] == max(values)


def _count_walks(monkeypatch):
    """Count calls of renorm._walk by the number of sequences walked."""
    calls = []
    walk = renorm._walk

    def counted(norm, blocks):
        calls.append(len(blocks))
        return walk(norm, blocks)

    monkeypatch.setattr(renorm, "_walk", counted)
    return calls


def by_trial(kind, pipe, seed, trials):
    """certify suff or property-m one trial at a time through the public
    checks, trial i read as row i of the command's stream alone."""
    norm, d = pipe.norm, pipe.norm.dim

    def draw(u):
        k = 1 + int(4 * u[0])
        mag, sign = u[1:1 + 4 * d], u[1 + 4 * d:1 + 8 * d]
        return BlockSeq(d, sampling.signed_log_uniform(mag, sign, 1e-2, 10.0)
                        .reshape(4, d)[:k])

    if kind == "suff":
        worst, checked = math.inf, 0
        for i in range(trials):
            u = sampling.uniforms(seed, sampling.SUFF, i, 1, 2 + 8 * d)[0]
            xi = match_lambda_norm(norm, draw(u), u[-1] or 0.5)
            rep = suff_criterion_check(norm, pipe.phitilde, xi)
            checked += rep.checked
            worst = min(worst, rep.min_margin)
        return {"min_margin": worst, "steps_checked": checked}
    worst = 0.0
    w = 1 + 8 * d
    for i in range(trials):
        u = sampling.uniforms(seed, sampling.PROPERTY_M, i, 1, 3 * w)[0]
        u, v, tail = draw(u[:w]), draw(u[w:2 * w]), draw(u[2 * w:])
        v = match_lambda_norm(norm, v, lambda_norm(norm, u))
        rep = prefix_substitution_check(norm, u, v, tail)
        assert rep.precondition_ok
        worst = max(worst, rep.difference)
    return {"max_difference": worst}


@pytest.mark.parametrize("batch, sizes", [(4096, [60]), (25, [25, 25, 10])])
@pytest.mark.parametrize("pipeline", ["t2-pipeline", "r2-pipeline"])
@pytest.mark.parametrize("kind", ["suff", "property-m"])
def test_certify_walks_trials_in_batches(kind, pipeline, batch, sizes,
                                         tmp_path, monkeypatch):
    monkeypatch.setattr(sampling, "CHUNK", batch)
    calls = _count_walks(monkeypatch)
    out = tmp_path / "c.json"
    assert run("certify", kind, "--pipeline", pipeline, "--trials", "60",
               "--seed", "7", "--out", str(out)) == 0
    # two walks per slice of CHUNK trials.  suff: the Lambda norms, then
    # the matched sequences; property-m: every u with its tail beside every
    # v, then every matched v with its tail
    per_batch = {"suff": [1, 1], "property-m": [2, 1]}[kind]
    assert calls == [m * n for n in sizes for m in per_batch]
    monkeypatch.undo()
    want = by_trial(kind, build_pipeline(pipeline, rng_seed=7), 7, 60)
    assert {key: body_of(out)[key] for key in want} == want


def test_certify_property_m_names_the_first_failed_precondition(monkeypatch,
                                                                capsys):
    # triple 3 of the second slice gets a v norm off by 1, triple 5 a u
    # that misses its norm; the command names triple 3's clause
    monkeypatch.setattr(sampling, "CHUNK", 8)
    real = renorm._substitution_verdict
    seen = []

    def failing(walk_u, walk_v):
        if seen:
            walk_u[1][5] = False
            walk_v[0][3] = walk_u[0][3] + 1.0
        seen.append(float(walk_u[0][3]))
        return real(walk_u, walk_v)

    monkeypatch.setattr(renorm, "_substitution_verdict", failing)
    assert run("certify", "property-m", "--trials", "16") == 3
    lu = seen[-1]
    assert len(seen) == 2
    assert capsys.readouterr().err.strip() == (
        "numeric signal: constructed triple failed its precondition: "
        f"prefix norms differ: {lu!r} vs {lu + 1.0!r}")


# -- failure modes ------------------------------------------------------------

def test_schema_errors_exit_two(tmp_path, seq_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("norm", "--seq", str(bad)) == 2
    assert run("norm", "--seq", str(tmp_path / "missing.json")) == 2
    assert run("norm", "--preset", "zp:x", "--seq", str(seq_file)) == 2
    assert run("renorm", "check", "--pipeline", "t2-pipeline") == 2
    assert run("renorm", "build", "--pipeline", "bogus") == 2
    assert run("certify", "quasiconvex", "--preset", "kp-softclip:2,1,3",
               "--trials", "10") == 2
    # an infinite clip bound would make a tanh(t / a) NaN
    assert run("envelope", "--preset", "kp-softclip:2,inf",
               "--resolution", "9") == 2
    assert run("certify", "no-such-kind") == 2
    assert run("certify", "suff", "--trials", "0") == 2
    capsys.readouterr()
    assert run("certify", "quasilinear", "--dim-max", "0",
               "--trials", "10") == 2
    assert "dim-max" in capsys.readouterr().err
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"dim": 3, "entries": [[1, [1.0, 1.0, 1.0]]]}))
    assert run("norm", "--seq", str(wide)) == 2


@pytest.mark.parametrize("command, flag, doc", [
    ("norm", "--seq", {"dim": 1, "entries": [[1.5, [2.0]]]}),
    ("norm", "--seq", {"dim": 1, "entries": [[True, [2.0]]]}),
    ("norm", "--seq", {"dim": 1.9, "entries": [[1, [2.0]]]}),
    ("twisted-norm", "--pair", {"dim": 2, "entries": [[2.5, [1.0, 0.0]]]}),
    ("lambda-norm", "--blocks", {"n": 1.5, "blocks": [[1.0]]}),
], ids=["fractional-index", "boolean-index", "fractional-dim",
        "fractional-pair-index", "fractional-block-dim"])
def test_non_integer_indices_and_dimensions_exit_two(command, flag, doc,
                                                     tmp_path, capsys):
    # int() would truncate them: [1.5, [2.0]] read as norm 2.0 at index 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    argv = [command, flag, str(path)]
    if command == "lambda-norm":
        argv += ["--pipeline", "t2-pipeline"]
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert "must be an integer, got" in captured.err
    assert captured.out == ""


# each (sub)command and the flags it reads, besides --out
FLAGS_READ = {
    "norm": "preset seq",
    "twisted-norm": "preset pair",
    "envelope": "preset csv resolution box",
    "certify quasiconvex": "preset type-p trials seed box",
    "certify equivalence": "preset dim-max trials seed resolution box",
    "certify quasilinear": "preset dim-max trials seed",
    "certify triangle": "pipeline trials seed",
    "certify suff": "pipeline trials seed",
    "certify property-m": "pipeline trials seed",
    "renorm build": "pipeline trials seed",
    "renorm check": "pipeline blocks seed",
    "lambda-norm": "pipeline blocks seed",
}


def flag_surface(parser, words=()):
    """{command words: option strings} of every (sub)command below parser
    that has no sub-commands of its own."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        flags = {s for a in parser._actions for s in a.option_strings}
        return {" ".join(words): flags - {"-h", "--help"}}
    return {key: flags for name, p in subs[0].choices.items()
            for key, flags in flag_surface(p, words + (name,)).items()}


def test_each_command_takes_only_the_flags_it_reads():
    surface = flag_surface(cli.build_parser())
    assert surface == {key: {f"--{f}" for f in flags.split() + ["out"]}
                       for key, flags in FLAGS_READ.items()}
    assert sum(map(len, surface.values())) == 53


@pytest.mark.parametrize("argv", [
    ("norm", "--seq", "{seq}", "--trials", "5"),
    ("lambda-norm", "--blocks", "{blocks}", "--box", "9"),
    ("renorm", "build", "--blocks", "{blocks}"),
    ("certify", "triangle", "--preset", "z2"),
], ids=["norm-trials", "lambda-norm-box", "renorm-build-blocks",
        "triangle-preset"])
def test_an_unread_flag_exits_two(argv, seq_file, blocks_file, capsys):
    paths = {"seq": seq_file, "blocks": blocks_file}
    assert run(*(a.format(**paths) for a in argv)) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, echoed", [
    (("lambda-norm", "--blocks", "{blocks}", "--seed", "7"), {"seed": 7}),
    (("renorm", "check", "--blocks", "{blocks}"), {"seed": 20240501}),
    (("envelope", "--resolution", "9", "--box", "1.5",
      "--csv", "{tmp}/grid.csv"), {"resolution": 9, "box_halfwidth": 1.5}),
    (("certify", "quasilinear", "--trials", "30", "--dim-max", "16"),
     {"seed": 20240501, "trials": 30}),
], ids=["lambda-norm", "renorm-check", "envelope", "quasilinear"])
def test_reports_echo_the_flags_read(argv, echoed, blocks_file, tmp_path):
    out = tmp_path / "report.json"
    paths = {"blocks": blocks_file, "tmp": tmp_path}
    assert run(*(a.format(**paths) for a in argv), "--out", str(out)) == 0
    body = body_of(out)
    keys = ("seed", "trials", "resolution", "box_halfwidth")
    assert {key: body[key] for key in keys if key in body} == echoed


def test_equivalence_reports_the_box_it_ran_on(tmp_path):
    # the 0.25 box is too small for these pairs; the certificate doubles it
    out = tmp_path / "e.json"
    assert run("certify", "equivalence", "--preset", "z2", "--box", "0.25",
               "--resolution", "9", "--dim-max", "16", "--trials", "300",
               "--seed", "3", "--out", str(out)) == 0
    rep = equivalence_certificate(from_preset("z2", 0.25, 9), 300, 16, 3)
    assert body_of(out)["box_halfwidth"] == rep["box_halfwidth"] == 2.0


# one small run of each (sub)command in FLAGS_READ
SMALL_RUNS = {
    "norm": ("norm", "--seq", "{seq}"),
    "twisted-norm": ("twisted-norm", "--pair", "{pair}"),
    "envelope": ("envelope", "--resolution", "9", "--csv", "{tmp}/grid.csv"),
    "certify quasiconvex": ("certify", "quasiconvex", "--trials", "100"),
    "certify equivalence": ("certify", "equivalence", "--trials", "40",
                            "--resolution", "9", "--dim-max", "16"),
    "certify quasilinear": ("certify", "quasilinear", "--trials", "40",
                            "--dim-max", "16"),
    "certify triangle": ("certify", "triangle", "--trials", "100"),
    "certify suff": ("certify", "suff", "--trials", "10"),
    "certify property-m": ("certify", "property-m", "--trials", "10"),
    "renorm build": ("renorm", "build", "--trials", "100"),
    "renorm check": ("renorm", "check", "--blocks", "{blocks}"),
    "lambda-norm": ("lambda-norm", "--blocks", "{blocks}"),
}


def test_every_command_has_a_small_run():
    assert set(SMALL_RUNS) == set(FLAGS_READ)


def _fail(monkeypatch, name):
    """Make the certificate of a (sub)command that has one fail."""
    kind = name.split()[-1]
    if kind in cli._CERTIFIERS:
        real = cli._CERTIFIERS[kind]
        monkeypatch.setitem(cli._CERTIFIERS, kind,
                            lambda args: (False, real(args)[1]))
        return "FAIL", {"pass": False}
    if name == "renorm check":
        real = cli.suff_criterion_check
        monkeypatch.setattr(cli, "suff_criterion_check", lambda *a: (
            dataclasses.replace(real(*a), ok=False)))
        return "suff_ok=False", {"suff_ok": False}
    return None


def _report_infinity(monkeypatch, name):
    """Have the handler of a (sub)command add an infinite report value."""
    text, func, flags = cli._COMMANDS[name.split()[0]]

    def handler(args):
        line, body, code = func(args)
        return line, {**body, "spread": math.inf}, code

    monkeypatch.setitem(cli._COMMANDS, name.split()[0],
                        (text, handler, flags))


@pytest.mark.parametrize("name", list(SMALL_RUNS))
def test_main_prints_the_line_then_the_report(name, seq_file, pair_file,
                                               blocks_file, tmp_path, capsys,
                                               monkeypatch):
    paths = {"seq": seq_file, "pair": pair_file, "blocks": blocks_file,
             "tmp": tmp_path}
    argv = [a.format(**paths) for a in SMALL_RUNS[name]]
    out = tmp_path / "report.json"
    # without --out: the summary line, then the report
    assert run(*argv) == 0
    line, report = capsys.readouterr().out.split("\n", 1)
    doc = json.loads(report)
    assert report == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert set(doc) == {"body", "meta"} and line and "{" not in line
    # with --out: the line alone, and the same body in the file
    assert run(*argv, "--out", str(out)) == 0
    assert capsys.readouterr().out == line + "\n"
    assert body_of(out) == doc["body"]
    # a failing certificate exits 1 and still reports
    failing = _fail(monkeypatch, name)
    if failing:
        word, verdict = failing
        out.unlink()
        assert run(*argv, "--out", str(out)) == 1
        assert word in capsys.readouterr().out
        assert body_of(out) == {**doc["body"], **verdict}
        monkeypatch.undo()
    # a value JSON cannot carry exits 3 after the line, writing nothing
    _report_infinity(monkeypatch, name)
    out.unlink()
    assert run(*argv, "--out", str(out)) == 3
    captured = capsys.readouterr()
    assert captured.out == line + "\n"
    assert "'spread' holds inf" in captured.err
    assert not out.exists()


def test_norm_parses_a_pair_file_once(pair_file, tmp_path, monkeypatch):
    calls = []
    parse = VecSeq.from_json.__func__

    def counted(cls, text):
        calls.append(text)
        return parse(cls, text)

    monkeypatch.setattr(VecSeq, "from_json", classmethod(counted))
    assert run("norm", "--preset", "z2", "--seq", str(pair_file),
               "--out", str(tmp_path / "report.json")) == 0
    assert calls == [pair_file.read_text()]


def test_a_missing_input_file_exits_two_naming_it(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run("lambda-norm", "--blocks", str(missing)) == 2
    assert str(missing) in capsys.readouterr().err
    assert run("norm", "--seq", str(tmp_path)) == 2      # a directory
    assert str(tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("envelope", "--resolution", "9", "--csv", "{tmp}/grid.csv"),
    ("certify", "quasiconvex", "--trials", "10"),
], ids=["envelope", "quasiconvex"])
def test_an_infinite_box_exits_two(argv, tmp_path, capsys):
    assert run(*(a.format(tmp=tmp_path) for a in argv), "--box", "inf") == 2
    assert "box halfwidth must be positive and finite" in \
        capsys.readouterr().err


def test_help_exits_zero():
    assert run("--help") == 0
    assert run() == 2          # a command is required


# -- console script and module entry point ------------------------------------

def run_python(*args):
    """A child interpreter that imports the package this process imported."""
    root = str(Path(twistnorm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env)


def run_module(*argv):
    """``python -m twistnorm``."""
    return run_python("-m", "twistnorm", *argv)


def test_console_script_runs(seq_file):
    proc = run_module("norm", "--preset", "zp:2", "--seq", str(seq_file))
    assert proc.returncode == 0
    assert "5.0" in proc.stdout


def test_renorm_check_on_huge_blocks_is_warning_free(tmp_path):
    # the suff check evaluates phitilde on the raw block, whose base
    # overflows at 1e200
    blocks = tmp_path / "huge.json"
    blocks.write_text(BlockSeq(1, [[1e200]]).to_json())
    proc = run_module("renorm", "check", "--pipeline", "t2-pipeline",
                      "--blocks", str(blocks))
    assert proc.returncode == 0
    assert proc.stderr == ""


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_renorm_check_report_is_strict_json(tmp_path, capsys):
    # the running product 1.4e200 * 1.4e200 overflows; its log does not
    blocks = tmp_path / "huge.json"
    blocks.write_text(BlockSeq(1, [[1e200], [-1e200]]).to_json())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("renorm", "check", "--pipeline", "t2-pipeline",
                   "--blocks", str(blocks)) == 0
    out = capsys.readouterr().out
    body = json.loads(out[out.index("{"):],
                      parse_constant=reject_constant)["body"]
    assert body["steps_checked"] == 0 and body["min_margin"] is None
    assert body["log_products"][1] == pytest.approx(
        2.0 * math.log(math.sqrt(2.0) * 1e200), rel=1e-12)


PIPELINE_DIMS = {"t2-pipeline": 1, "t4-pipeline": 1, "r2-pipeline": 2}
# zeros and signed magnitudes 1e-300 .. 1e300
ENTRIES = st.one_of(
    st.just(0.0),
    st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-300.0, 300.0),
              st.sampled_from([1.0, -1.0])))


@settings(max_examples=40, deadline=None)
@given(argv=st.sampled_from([("renorm", "check"), ("lambda-norm",)]),
       pipeline=st.sampled_from(sorted(PIPELINE_DIMS)), data=st.data())
def test_block_reports_are_strict_json_at_any_scale(tmp_path_factory, argv,
                                                    pipeline, data):
    dim = PIPELINE_DIMS[pipeline]
    blocks = data.draw(st.lists(st.lists(ENTRIES, min_size=dim,
                                         max_size=dim), max_size=5))
    path = tmp_path_factory.getbasetemp() / "any-scale-blocks.json"
    path.write_text(json.dumps({"n": dim, "blocks": blocks}))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = run(*argv, "--pipeline", pipeline, "--blocks", str(path))
    assert code in (0, 1, 3)
    # caught holds what a cold process would print to stderr as warnings
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err.getvalue()
    text = out.getvalue()
    if code != 3:
        json.loads(text[text.index("{"):], parse_constant=reject_constant)


def test_non_finite_report_value_is_a_numeric_signal(tmp_path):
    out = tmp_path / "report.json"
    with pytest.raises(NumericSignal, match="'spread' holds inf"):
        cli.write_report(str(out), {"c": [1.0], "spread": [2.0, math.inf]})
    with pytest.raises(NumericSignal, match="'m' holds nan"):
        cli.write_report(str(out), {"m": np.array([math.nan])})
    assert not out.exists()


def test_console_script_numeric_signal():
    proc = run_module("certify", "quasiconvex", "--preset", "zp:2",
                      "--type-p", "2.5", "--trials", "10")
    assert proc.returncode == 3
    assert proc.stderr.strip() != ""


def test_import_and_norm_load_no_scipy(seq_file, blocks_file, tmp_path):
    # the package imports no scipy, the envelope's hull included
    seq, blocks = str(seq_file), str(blocks_file)
    out, csv = str(tmp_path / "report.json"), str(tmp_path / "grid.csv")
    code = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "from twistnorm import build_space, certify, identity_theta, power\n"
        "from twistnorm.renorm import PIPELINES, build_pipeline\n"
        "from twistnorm.cli import main\n"
        "seen = {'import': scipy_modules()}\n"
        f"rcs = [main(['norm', '--preset', 'zp:2', '--seq', {seq!r}])]\n"
        "seen['norm'] = scipy_modules()\n"
        "rcs.append(main(['lambda-norm', '--pipeline', 't4-pipeline',\n"
        f"                 '--blocks', {blocks!r}, '--out', {out!r}]))\n"
        "seen['lambda-norm'] = scipy_modules()\n"
        "rcs.append(main(['envelope', '--resolution', '9',\n"
        f"                 '--csv', {csv!r}, '--out', {out!r}]))\n"
        "seen['envelope'] = scipy_modules()\n"
        "rcs.append(main(['certify', 'equivalence', '--resolution', '9',\n"
        f"                 '--out', {out!r}]))\n"
        "seen['certify equivalence'] = scipy_modules()\n"
        "build_space(certify(power(2.0), 2.0), identity_theta(), 2.0, 9)\n"
        "seen['build_space'] = scipy_modules()\n"
        "for name in PIPELINES:\n"
        "    build_pipeline(name)\n"
        "    seen[name] = scipy_modules()\n"
        "print(json.dumps([rcs, seen]))\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    rcs, seen = json.loads(proc.stdout.splitlines()[-1])
    assert rcs == [0, 0, 0, 0]
    assert set(seen) == {"import", "norm", "lambda-norm", "envelope",
                         "certify equivalence", "build_space", "t2-pipeline",
                         "t4-pipeline", "r2-pipeline"}
    assert all(mods == [] for mods in seen.values()), seen


def test_console_script_entry_point_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["scripts"]["twistnorm"] == "twistnorm.cli:main"
