"""The benchmark's workloads: seeded inputs, set-up, tasks and their checks.

Every workload is a closed loop with one client: the tasks of a pass run
one after another, each starting when the previous one has finished.  One
pass is the workload's stated size; a run repeats the same pass until its
time is up, so every pass must produce the same results.

The checks and their tolerances are those of the acceptance suite
(tests/test_acceptance.py) and of the CLI's pass rules; none is looser.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Task:
    """One timed library call and the check run on its result afterwards.

    ``call(state)`` is the timed part.  ``check(result)`` returns (values
    to digest, failure reason or None) and is not timed.
    """

    label: str
    call: Callable
    check: Callable


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(seed), int(stream)])))


def sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2 ** 31 - 1))


def random_rows(rng: np.random.Generator, n: int, dim: int,
                max_support: int = 8) -> np.ndarray:
    """Rows of width dim with 1..max_support nonzeros.

    Magnitudes are log-uniform in [1e-4, 1e2] with uniform signs, the law
    the library's own samplers use.
    """
    k = min(max_support, dim)
    out = np.zeros((n, dim))
    sizes = rng.integers(1, k + 1, size=n)
    cols = np.argsort(rng.random((n, dim)), axis=1)[:, :k]
    mask = np.arange(k)[None, :] < sizes[:, None]
    mags = 10.0 ** (-4.0 + 6.0 * rng.random((n, k)))
    signs = np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)
    np.put_along_axis(out, cols, np.where(mask, mags * signs, 0.0), axis=1)
    return out


def random_blocks(rng: np.random.Generator, k: int, dim: int) -> np.ndarray:
    """k blocks in R^dim, magnitudes log-uniform in [1e-2, 10], signed."""
    mags = 10.0 ** (-2.0 + 3.0 * rng.random((k, dim)))
    return mags * np.where(rng.random((k, dim)) < 0.5, -1.0, 1.0)


def _rel_err(ours: np.ndarray, truth: np.ndarray) -> float:
    return float(np.max(np.abs(ours - truth) / truth))


# --------------------------------------------------------------------------
# twisted-sampling: Luxemburg bisection and F, no LPs, grids or renorming

# preset -> (p of power(p), theta clip bound or None for identity)
SAMPLING_SPACES = {"z2": (2.0, None), "kp-softclip:3,1": (3.0, 1.0)}
SAMPLING_WIDTHS = (16, 64, 256)
SAMPLING_ROWS = 256           # rows per norm-batch task
SAMPLING_TRIALS = 256         # trials per quasi-linearity / triangle task


def _theta(clip, t):
    return t if clip is None else clip * np.tanh(t / clip)


def _twisted_oracle(p: float, clip, X: np.ndarray, Y: np.ndarray):
    """||y||_p + ||x - F(y)||_p from the l_p closed form."""
    ny = np.linalg.norm(Y, ord=p, axis=1)
    ay = np.abs(Y)
    nz = ay > 0.0
    F = np.zeros_like(Y)
    ratio = np.where(nz, ny[:, None] / np.where(nz, ay, 1.0), 1.0)
    F[nz] = Y[nz] * _theta(clip, np.log(ratio[nz]))
    return ny + np.linalg.norm(X - F, ord=p, axis=1)


def _check_lux(p, rows):
    def check(res):
        err = _rel_err(res, np.linalg.norm(rows, ord=p, axis=1))
        return res, (None if err <= 1e-9 else
                     f"l_{p:g} closed form off by {err:.2e} > 1e-9")
    return check


def _check_twisted(p, clip, X, Y):
    def check(res):
        err = _rel_err(res, _twisted_oracle(p, clip, X, Y))
        return res, (None if err <= 1e-9 else
                     f"twisted norm off its l_{p:g} oracle by {err:.2e}")
    return check


def _check_quasilinear(res):
    vals = list(res.per_dim.values())
    spread = max(vals) / min(vals) if min(vals) > 0 else math.inf
    ok = math.isfinite(res.c_hat) and res.c_hat > 0 and spread <= 2.0
    return ([res.c_hat, res.per_dim, res.witness],
            None if ok else f"c_hat={res.c_hat} dim spread {spread} > 2")


def _check_triangle_q(res):
    ok = math.isfinite(res["Q_hat"]) and res["Q_hat"] > 0
    return res, None if ok else f"Q_hat={res['Q_hat']} not finite positive"


class TwistedSampling:
    name = "twisted-sampling"
    tail_q = 90
    trace_passes = 2

    def inputs(self, seed: int) -> dict:
        rng = rng_for(seed, 1)
        items = []
        for width in SAMPLING_WIDTHS:
            for preset in SAMPLING_SPACES:
                items.append(("lux", preset, width,
                              random_rows(rng, SAMPLING_ROWS, width)))
                items.append(("twisted", preset, width,
                              (random_rows(rng, SAMPLING_ROWS, width),
                               random_rows(rng, SAMPLING_ROWS, width))))
                items.append(("quasilinear", preset, width, sub_seed(rng)))
                items.append(("triangle", preset, width, sub_seed(rng)))
        return {"items": items}

    def setup(self, tn, inputs: dict) -> dict:
        return {preset: tn.from_preset(preset, with_envelope=False)
                for preset in SAMPLING_SPACES}

    def setup_failures(self, state) -> list:
        return []

    def tasks(self, tn, inputs: dict) -> list:
        out = []
        for kind, preset, width, data in inputs["items"]:
            p, clip = SAMPLING_SPACES[preset]
            label = f"{kind}/{preset}/{width}"
            if kind == "lux":
                out.append(Task(label, lambda s, pr=preset, r=data:
                                tn.luxemburg_norm_batch(s[pr].f, r[..., None]),
                                _check_lux(p, data)))
            elif kind == "twisted":
                X, Y = data
                out.append(Task(label, lambda s, pr=preset, X=X, Y=Y:
                                tn.twisted_norm_batch(s[pr], X, Y),
                                _check_twisted(p, clip, X, Y)))
            elif kind == "quasilinear":
                out.append(Task(label, lambda s, pr=preset, w=width, sd=data:
                                tn.quasi_linearity_constant(
                                    s[pr], SAMPLING_TRIALS, w, sd),
                                _check_quasilinear))
            else:
                out.append(Task(label, lambda s, pr=preset, w=width, sd=data:
                                tn.quasi_triangle_constant(
                                    s[pr], SAMPLING_TRIALS, w, sd),
                                _check_triangle_q))
        return out

    def properties(self, inputs: dict) -> dict:
        cells = nonzero = 0
        for kind, _, _, data in inputs["items"]:
            for a in ((data,) if kind == "lux" else
                      data if kind == "twisted" else ()):
                cells += a.size
                nonzero += int(np.count_nonzero(a))
        return {"spaces": list(SAMPLING_SPACES), "widths": SAMPLING_WIDTHS,
                "rows_per_batch": SAMPLING_ROWS, "max_nonzeros": 8,
                "certificate_trials": SAMPLING_TRIALS,
                "batch_nonzero_share": nonzero / cells}


# --------------------------------------------------------------------------
# grid-envelope: LP envelopes in set-up, GridMap interpolation in the tasks

GRID_RESOLUTION = 17
GRID_BOX = 2.0
TIGHT_BOX = 1.0               # small enough that the box must double
TIGHT_RESOLUTION = 9
EQ_TRIALS = 200
TIGHT_TRIALS = 300
# (dim_max, tasks per space): several small certificates rather than a
# few large ones, so that the median task is one of many alike
EQ_DIMS = ((16, 3), (64, 1))
GRID_SPACES = ("z2", "kp-softclip:2,1")


def _check_equivalence(res):
    ok = bool(res["stable"])
    return res, None if ok else f"equivalence unstable: drift {res['stability']}"


def _check_tight(res):
    if res["box_halfwidth"] <= TIGHT_BOX:
        return res, "the tight box was not doubled"
    return _check_equivalence(res)


def _check_mollify(res):
    searched, confirmed = res
    vals = [searched.certified_fraction, searched.ratio_min,
            searched.ratio_max, confirmed.ratio_min, confirmed.ratio_max,
            confirmed.map.table]
    if searched.certified_fraction is None:
        return vals, "no certified mollifier fraction"
    ok = (confirmed.sandwich_ok and confirmed.certified_fraction > 0.0
          and 0.5 <= confirmed.ratio_min <= confirmed.ratio_max <= 2.0)
    return vals, None if ok else "mollifier sandwich not certified"


def _mollify_pair(tn, space, fraction):
    env = space.psi.envelope_map().as_young()
    searched = tn.mollify(env, fraction, GRID_BOX, GRID_RESOLUTION)
    if searched.certified_fraction is None:
        return searched, searched
    return searched, tn.mollify(env, searched.certified_fraction, GRID_BOX,
                                GRID_RESOLUTION)


class GridEnvelope:
    name = "grid-envelope"
    tail_q = 80
    trace_passes = 1

    def inputs(self, seed: int) -> dict:
        rng = rng_for(seed, 2)
        items = []
        for dim_max, repeats in EQ_DIMS:
            for preset in GRID_SPACES:
                for _ in range(repeats):
                    items.append(("equivalence", preset, dim_max,
                                  sub_seed(rng)))
        items.append(("tight", "z2", 16, sub_seed(rng)))
        for preset in GRID_SPACES:
            for _ in range(2):
                items.append(("mollify", preset, None,
                              float(rng.uniform(0.1, 0.4))))
        return {"items": items}

    def setup(self, tn, inputs: dict) -> dict:
        f2 = tn.certify(tn.power(2.0), 2.0)
        return {
            "z2": tn.build_space(f2, tn.identity_theta(), GRID_BOX,
                                 GRID_RESOLUTION, label="z2"),
            "kp-softclip:2,1": tn.build_space(
                f2, tn.soft_clip_theta(1.0), GRID_BOX, GRID_RESOLUTION,
                label="kp-softclip:2,1"),
            "tight": tn.build_space(f2, tn.identity_theta(), TIGHT_BOX,
                                    TIGHT_RESOLUTION, label="z2"),
        }

    def setup_failures(self, state) -> list:
        bad = []
        for name, space in state.items():
            psi = space.psi
            if not np.all(psi.envelope <= psi.values + 1e-9):
                bad.append(f"{name}: envelope above the values by > 1e-9")
            if psi.support_max > psi.dim + 1:
                bad.append(f"{name}: support_max {psi.support_max} > dim+1")
        return bad

    def tasks(self, tn, inputs: dict) -> list:
        out = []
        for kind, preset, dim_max, data in inputs["items"]:
            if kind == "equivalence":
                out.append(Task(f"equivalence/{preset}/{dim_max}",
                                lambda s, pr=preset, d=dim_max, sd=data:
                                tn.equivalence_certificate(
                                    s[pr], EQ_TRIALS, d, sd),
                                _check_equivalence))
            elif kind == "tight":
                out.append(Task("equivalence/tight-box/16",
                                lambda s, d=dim_max, sd=data:
                                tn.equivalence_certificate(
                                    s["tight"], TIGHT_TRIALS, d, sd),
                                _check_tight))
            else:
                out.append(Task(f"mollify/{preset}",
                                lambda s, pr=preset, c=data:
                                _mollify_pair(tn, s[pr], c),
                                _check_mollify))
        return out

    def properties(self, inputs: dict) -> dict:
        return {"spaces": list(GRID_SPACES), "resolution": GRID_RESOLUTION,
                "box_halfwidth": GRID_BOX,
                "tight_box": [TIGHT_BOX, TIGHT_RESOLUTION],
                "equivalence_trials": EQ_TRIALS, "dim_max_tasks": EQ_DIMS,
                "tight_trials": TIGHT_TRIALS,
                "mollify_fractions": [round(d, 6) for k, _, _, d
                                      in inputs["items"] if k == "mollify"]}


# --------------------------------------------------------------------------
# renorm-blocks: star-iterated norms on dim-1 and dim-2 pipelines

PIPELINES = ("t2-pipeline", "t4-pipeline", "r2-pipeline")
# Block counts are fixed so that a pass costs about the same for every
# seed; the seed draws the block values and the match targets.  Matching
# runs on the dim-1 pipelines only: its bisection either hits the target
# exactly, converges in about 52 walks or stalls at its 200-walk cap,
# depending on the data, and on r2 a walk costs about 25 times more, so a
# few r2 matches made the cost of a pass differ twofold between seeds.
# Most tasks are Lambda norms on the dim-1 pipelines whose block counts
# rise by about 3% from one to the next, from 10 to 50, alternating
# between t2 and t4.  The median task is then one of many of closely
# spaced cost, so the matches and prefix triples, whose cost depends on
# the data as above, move it by a few percent at most between seeds.
BLOCK_MIX = (1, 2, 4, 8, 16, 32, 64)   # blocks per lambda_norm task
LAMBDA_MIXES = {"t2-pipeline": 1, "t4-pipeline": 1, "r2-pipeline": 2}
SPREAD_BLOCKS = tuple(round(10 * 5 ** (i / 59)) for i in range(60))
SPREAD_LAMBDAS = {"t2-pipeline": SPREAD_BLOCKS[0::2],
                  "t4-pipeline": SPREAD_BLOCKS[1::2]}
MATCH_BLOCKS = (2, 3, 4, 5) * 2         # blocks per match + suff task
PREFIX_BLOCKS = ((2, 3, 2), (4, 1, 3)) * 2   # (u, v, tail) per triple
RENORM_TRIALS = 5000                    # triangle_violation batch


def _check_lambda(res):
    ok = math.isfinite(res) and res > 0.0
    return res, None if ok else f"lambda norm {res!r} not finite positive"


def _check_suff(res):
    matched, rep = res
    vals = [matched.blocks, rep.min_margin, rep.checked, rep.values]
    if rep.checked != matched.n_blocks - 1:
        return vals, f"only {rep.checked} of {matched.n_blocks - 1} steps checked"
    if not rep.min_margin >= -1e-9:
        return vals, f"suff margin {rep.min_margin:.3e} < -1e-9"
    return vals, None


def _check_prefix(res):
    vals = [res.norm_u, res.norm_v, res.difference]
    if not res.precondition_ok:
        return vals, f"precondition failed: {res.reason}"
    ok = res.difference <= 1e-9
    return vals, None if ok else f"prefix difference {res.difference:.3e} > 1e-9"


def _check_triangle_n(res):
    return res, None if res <= 1e-10 else f"triangle violation {res:.3e} > 1e-10"


def _match_suff(tn, pipe, blocks, target):
    xi = tn.BlockSeq(pipe.norm.dim, blocks)
    matched = tn.match_lambda_norm(pipe.norm, xi, target)
    return matched, tn.suff_criterion_check(pipe.norm, pipe.phitilde, matched)


def _prefix(tn, pipe, u, v, tail):
    d = pipe.norm.dim
    u, v, tail = (tn.BlockSeq(d, u), tn.BlockSeq(d, v), tn.BlockSeq(d, tail))
    v = tn.match_lambda_norm(pipe.norm, v, tn.lambda_norm(pipe.norm, u))
    return tn.prefix_substitution_check(pipe.norm, u, v, tail)


class RenormBlocks:
    name = "renorm-blocks"
    tail_q = 98
    trace_passes = 1

    def inputs(self, seed: int) -> dict:
        rng = rng_for(seed, 3)
        items = []
        for name in PIPELINES:
            d = 2 if name == "r2-pipeline" else 1
            for k in BLOCK_MIX * LAMBDA_MIXES[name]:
                items.append(("lambda", name, random_blocks(rng, k, d)))
            items.append(("triangle", name, sub_seed(rng)))
            if d == 2:
                continue
            for k in SPREAD_LAMBDAS[name]:
                items.append(("lambda", name, random_blocks(rng, k, d)))
            for k in MATCH_BLOCKS:
                items.append(("suff", name, (random_blocks(rng, k, d),
                                             float(rng.uniform(0.05, 0.99)))))
            for sizes in PREFIX_BLOCKS:
                items.append(("prefix", name, tuple(
                    random_blocks(rng, k, d) for k in sizes)))
        return {"items": items}

    def setup(self, tn, inputs: dict) -> dict:
        return {name: tn.build_pipeline(name) for name in PIPELINES}

    def setup_failures(self, state) -> list:
        t2 = state["t2-pipeline"]
        bad = []
        if t2.g.alpha != 0.5:
            bad.append(f"t2 alpha {t2.g.alpha!r} != 1/2")
        if abs(t2.g.M - 1.0) > 1e-9:
            bad.append(f"t2 M {t2.g.M!r} not within 1e-9 of 1")
        n11 = t2.norm.value(1.0, [1.0])
        if abs(n11 - (SQRT2 + 0.5)) > 1e-9:
            bad.append(f"t2 N(1,1) {n11!r} not within 1e-9 of sqrt2 + 1/2")
        return bad

    def tasks(self, tn, inputs: dict) -> list:
        out = []
        for kind, name, data in inputs["items"]:
            if kind == "lambda":
                out.append(Task(f"lambda/{name}/{len(data)}",
                                lambda s, n=name, b=data: tn.lambda_norm(
                                    s[n].norm, tn.BlockSeq(s[n].norm.dim, b)),
                                _check_lambda))
            elif kind == "suff":
                out.append(Task(f"match-suff/{name}",
                                lambda s, n=name, d=data:
                                _match_suff(tn, s[n], *d),
                                _check_suff))
            elif kind == "prefix":
                out.append(Task(f"prefix/{name}",
                                lambda s, n=name, d=data:
                                _prefix(tn, s[n], *d),
                                _check_prefix))
            else:
                out.append(Task(f"triangle/{name}",
                                lambda s, n=name, sd=data:
                                tn.triangle_violation(
                                    s[n].norm, RENORM_TRIALS, sd),
                                _check_triangle_n))
        return out

    def properties(self, inputs: dict) -> dict:
        return {"pipelines": {n: (2 if n == "r2-pipeline" else 1)
                              for n in PIPELINES},
                "lambda_block_mix": BLOCK_MIX, "lambda_mixes": LAMBDA_MIXES,
                "spread_lambdas": SPREAD_LAMBDAS,
                "match_blocks": MATCH_BLOCKS, "prefix_blocks": PREFIX_BLOCKS,
                "match_pipelines": ["t2-pipeline", "t4-pipeline"],
                "triangle_trials": RENORM_TRIALS}


# --------------------------------------------------------------------------
# cli-cold: each command is a fresh interpreter running twistnorm.cli.main

CLI_SEED = 20240501           # the CLI's default --seed
CLI_TRIALS = {"renorm": 2000, "quasiconvex": 3000}


def _entries(rng, dim):
    n = int(rng.integers(2, 9))
    idx = sorted(rng.choice(np.arange(1, 65), size=n, replace=False).tolist())
    vals = random_rows(rng, n, dim, max_support=dim)
    return [[int(i), [float(x) for x in v]] for i, v in zip(idx, vals)]


class CliCold:
    name = "cli-cold"
    tail_q = 90
    trace_passes = 1

    def inputs(self, seed: int) -> dict:
        rng = rng_for(seed, 4)
        files = {
            "seq.json": {"dim": 1, "entries": _entries(rng, 1)},
            "pair.json": {"dim": 2, "entries": _entries(rng, 2)},
            "pair2.json": {"dim": 2, "entries": _entries(rng, 2)},
            "blocks.json": {"n": 1, "blocks": random_blocks(
                rng, int(rng.integers(1, 7)), 1).tolist()},
        }
        s = sub_seed(rng)
        commands = [
            ["norm", "--preset", "zp:3", "--seq", "seq.json"],
            ["norm", "--preset", "z2", "--seq", "pair.json"],
            ["twisted-norm", "--preset", "kp-softclip:3,1",
             "--pair", "pair2.json"],
            ["lambda-norm", "--pipeline", "t2-pipeline",
             "--blocks", "blocks.json"],
            ["renorm", "build", "--pipeline", "t2-pipeline",
             "--trials", str(CLI_TRIALS["renorm"]), "--seed", str(s)],
            ["certify", "quasiconvex", "--preset", "z2",
             "--trials", str(CLI_TRIALS["quasiconvex"]), "--seed", str(s)],
        ]
        return {"files": files, "commands": commands, "seed": s}

    def references(self, tn, inputs: dict) -> list:
        """The library's values for each command's report body."""
        files = {k: json.dumps(v) for k, v in inputs["files"].items()}
        f2 = tn.certify(tn.power(2.0), 2.0)
        f3 = tn.certify(tn.power(3.0), 3.0)
        zp3 = tn.build_space(f3, tn.identity_theta(), with_envelope=False)
        z2 = tn.build_space(f2, tn.identity_theta(), with_envelope=False)
        kp = tn.build_space(f3, tn.soft_clip_theta(1.0), with_envelope=False)
        xi = tn.BlockSeq.from_json(files["blocks.json"])
        t2 = tn.build_pipeline("t2-pipeline", rng_seed=CLI_SEED)
        s = inputs["seed"]
        t2s = tn.build_pipeline("t2-pipeline", rng_seed=s)
        phi = tn.kalton_peck_map(f2, tn.identity_theta())
        qc = tn.quasiconvexity_constant(phi, CLI_TRIALS["quasiconvex"], s,
                                        halfwidth=2.0)
        return [
            {"norm": tn.luxemburg_norm(
                zp3.f, tn.VecSeq.from_json(files["seq.json"]))},
            {"norm": tn.twisted_norm(
                z2, tn.PairSeq.from_json(files["pair.json"]))},
            {"norm": tn.twisted_norm(
                kp, tn.PairSeq.from_json(files["pair2.json"]))},
            {"lambda_norm": tn.lambda_norm(t2.norm, xi),
             "values": tn.star_iterate(t2.norm, xi)},
            {"alpha": t2s.g.alpha, "M": t2s.g.M, "N_unit": 1.0,
             "decreasing_ok": True,
             "triangle_max_violation": tn.triangle_violation(
                 t2s.norm, CLI_TRIALS["renorm"], s)},
            {"L_hat": qc.l_hat, "pass": True,
             "bound": tn.kp_theoretical_bound(f2.constants,
                                              tn.identity_theta())},
        ]

    def check(self, index: int, code: int, body, ref: dict):
        """(values to digest, failure reason or None) for one command."""
        if code != 0:
            return [code], f"exit code {code}"
        if body is None:
            return [code], "no report written"
        for key, want in ref.items():
            if body.get(key) != want:
                return body, f"{key}: report {body.get(key)!r} != library {want!r}"
        if index == 4 and not body["triangle_max_violation"] <= 1e-10:
            return body, "renorm build triangle violation > 1e-10"
        return body, None

    def properties(self, inputs: dict) -> dict:
        return {"commands": [c[0] if c[0] != "renorm" else "renorm build"
                             for c in inputs["commands"]],
                "presets": ["zp:3", "z2", "kp-softclip:3,1", "t2-pipeline"],
                "trials": CLI_TRIALS,
                "terms": [len(v.get("entries", v.get("blocks", [])))
                          for v in inputs["files"].values()]}


WORKLOADS = {w.name: w for w in (TwistedSampling(), GridEnvelope(),
                                 RenormBlocks(), CliCold())}
