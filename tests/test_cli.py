import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistnorm
from twistnorm import BlockSeq, VecSeq, build_pipeline, cli, renorm, scalarfn


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
    calls = []
    walk = renorm.star_iterate

    def counted(norm, seq):
        calls.append(seq.n_blocks)
        return walk(norm, seq)

    monkeypatch.setattr(renorm, "star_iterate", counted)
    monkeypatch.setattr(cli, "star_iterate", counted)
    out = tmp_path / "report.json"
    assert run(*argv, "--pipeline", "t2-pipeline", "--blocks", str(blocks),
               "--out", str(out)) == 0
    assert calls == [3]
    values = walk(build_pipeline("t2-pipeline").norm, xi)
    body = body_of(out)
    assert body["values"] == values
    assert body["lambda_norm"] == max(values)


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
    assert run("norm", "--seq", str(seq_file), "--trials", "0") == 2
    capsys.readouterr()
    assert run("certify", "quasilinear", "--dim-max", "0",
               "--trials", "10") == 2
    assert "dim-max" in capsys.readouterr().err
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"dim": 3, "entries": [[1, [1.0, 1.0, 1.0]]]}))
    assert run("norm", "--seq", str(wide)) == 2


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


def test_console_script_numeric_signal():
    proc = run_module("certify", "quasiconvex", "--preset", "zp:2",
                      "--type-p", "2.5", "--trials", "10")
    assert proc.returncode == 3
    assert proc.stderr.strip() != ""


def test_import_and_norm_load_no_scipy(seq_file, blocks_file, tmp_path):
    # scipy is imported only inside the envelope's Qhull hull
    seq, blocks = str(seq_file), str(blocks_file)
    out = str(tmp_path / "report.json")
    code = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "from twistnorm.renorm import PIPELINES, build_pipeline\n"
        "from twistnorm.cli import main\n"
        "seen = {'import': scipy_modules()}\n"
        f"rcs = [main(['norm', '--preset', 'zp:2', '--seq', {seq!r}])]\n"
        "seen['norm'] = scipy_modules()\n"
        "rcs.append(main(['lambda-norm', '--pipeline', 't4-pipeline',\n"
        f"                 '--blocks', {blocks!r}, '--out', {out!r}]))\n"
        "seen['lambda-norm'] = scipy_modules()\n"
        "for name in PIPELINES:\n"
        "    build_pipeline(name)\n"
        "    seen[name] = scipy_modules()\n"
        "print(json.dumps([rcs, seen]))\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    rcs, seen = json.loads(proc.stdout.splitlines()[-1])
    assert rcs == [0, 0]
    assert set(seen) == {"import", "norm", "lambda-norm", "t2-pipeline",
                         "t4-pipeline", "r2-pipeline"}
    assert all(mods == [] for mods in seen.values()), seen


def test_console_script_entry_point_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["scripts"]["twistnorm"] == "twistnorm.cli:main"
