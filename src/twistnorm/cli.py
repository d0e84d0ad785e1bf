"""Command-line front end: norms, envelopes, and seeded certificates.

Each command handler reads its JSON files and returns a summary line,
a report body and an exit code.  ``main`` alone prints the line, then
writes the JSON report to stdout, or to the --out file:

    {"body": {...deterministic given the flags...},
     "meta": {"timestamp": "..."}}

so reruns with identical configuration produce byte-identical bodies.
Each command and sub-command takes only the flags it reads (_COMMANDS);
``main`` adds those of --seed, --trials, --resolution and --box to the
body, where a key the command reports itself wins (certify equivalence
reports the box it ran on, which may be larger).
Exit codes: 0 success, 1 a certificate ran and failed its tolerance,
2 malformed input or configuration, 3 a numeric signal (unbounded
constant, failed bracket, failed construction certificate).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import sampling
from .errors import NumericSignal
from .renorm import (CHECK_TOL, PIPELINES, BlockSeq, build_pipeline,
                     star_iterate, substitution_differences,
                     suff_criterion_check, suff_margins, triangle_violation)
from .scalarfn import certify
from .seqspace import VecSeq, luxemburg_norm
from .twisted import (PairSeq, equivalence_certificate, from_preset,
                      quasi_linearity_constant, quasi_triangle_constant,
                      twisted_norm)
from .youngmap import (convex_envelope, kp_theoretical_bound,
                       quasiconvexity_constant)

__all__ = ["main"]


SPACE_PRESETS = "z2, zp:<p>, kp-softclip:<p>,<b>"


def _provenance(args) -> dict:
    return {k: v for k, v in vars(args).items()
            if k in ("seed", "trials", "resolution", "box_halfwidth")}


def _jsonable(obj, key: str = "body"):
    """obj in JSON types; a float that is not finite raises NumericSignal
    naming the key it sits under, since JSON has no such number."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, str(k)) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, key) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        if not math.isfinite(obj):
            raise NumericSignal(f"report key {key!r} holds {float(obj)!r}, "
                                "which JSON cannot carry")
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist(), key)
    return obj


def write_report(out: str | None, body: dict) -> None:
    doc = {"body": _jsonable(body),
           "meta": {"timestamp":
                    datetime.datetime.now(datetime.timezone.utc).isoformat()}}
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _random_blocks(u: np.ndarray, dim: int) -> list:
    """1 + floor(4 u0) blocks per row of u, from 4 dim magnitudes in
    [1e-2, 10] and 4 dim signs.  Trial i of certify suff (then its target,
    the last uniform or 1/2 for 0) or property-m (u, v, tail) is row i."""
    blocks = sampling.signed_log_uniform(
        u[:, 1:1 + 4 * dim], u[:, 1 + 4 * dim:1 + 8 * dim], 1e-2, 10.0)
    counts = 1 + (4 * u[:, 0]).astype(int)
    return [b[:k] for b, k in zip(blocks.reshape(-1, 4, dim), counts)]


# --------------------------------------------------------------------------
# commands: each returns (summary line, report body, exit code)


def cmd_norm(args) -> tuple[str, dict, int]:
    seq = VecSeq.from_json(Path(args.seq).read_text())
    space = from_preset(args.preset, with_envelope=False)
    if seq.dim == 1:
        value = luxemburg_norm(space.f, seq)
        kind = "luxemburg"
    elif seq.dim == 2:
        pair = PairSeq(seq.indices, seq.vectors[:, 0], seq.vectors[:, 1])
        value = twisted_norm(space, pair)
        kind = "twisted"
    else:
        raise ValueError("norm expects a dim-1 sequence or a dim-2 pair file")
    return f"{kind} norm = {value!r}", {
        "command": "norm", "kind": kind, "preset": args.preset,
        "input": args.seq, "norm": value,
    }, 0


def cmd_twisted_norm(args) -> tuple[str, dict, int]:
    space = from_preset(args.preset, with_envelope=False)
    pair = PairSeq.from_json(Path(args.pair).read_text())
    value = twisted_norm(space, pair)
    return f"twisted norm = {value!r}", {
        "command": "twisted-norm", "preset": args.preset,
        "input": args.pair, "norm": value,
    }, 0


def cmd_envelope(args) -> tuple[str, dict, int]:
    space = from_preset(args.preset, with_envelope=False)
    grid = convex_envelope(space.phi_kp, args.box_halfwidth, args.resolution)
    out = args.csv or "envelope.csv"
    grid.to_csv(out)
    return f"envelope grid ({grid.resolution}x{grid.resolution}) -> {out}", {
        "command": "envelope", "preset": args.preset,
        "csv": out, "support_max": grid.support_max,
        "ratio_max": grid.ratio_max,
    }, 0


def _certify_quasiconvex(args) -> tuple[bool, dict]:
    space = from_preset(args.preset, with_envelope=False)
    claimed = args.type_p if args.type_p is not None else space.f.p
    f = certify(space.f, claimed)
    res = quasiconvexity_constant(space.phi_kp, args.trials, args.seed,
                                  halfwidth=args.box_halfwidth)
    bound = kp_theoretical_bound(f.constants, space.theta)
    ok = bool(1.0 < res.l_hat <= bound + 1e-9)
    return ok, {
        "kind": "quasiconvex", "preset": args.preset, "claimed_type": claimed,
        "L_hat": res.l_hat, "bound": bound, "witness": res.witness_report(),
        "constants": f.constants.to_report(),
    }


def _certify_equivalence(args) -> tuple[bool, dict]:
    space = from_preset(args.preset, resolution=args.resolution,
                        with_envelope=False)
    f = certify(space.f, space.f.p)
    space = space.with_box(args.box_halfwidth)
    rep = equivalence_certificate(space, args.trials, args.dim_max, args.seed)
    side = max(1, args.trials // 4)
    ql = quasi_linearity_constant(space, side, args.dim_max, args.seed)
    qt = quasi_triangle_constant(space, side, args.dim_max, args.seed)
    ok = bool(rep["stable"] and rep["ratio_min"] > 0
              and math.isfinite(rep["ratio_max"]))
    return ok, {
        "kind": "equivalence", "preset": args.preset,
        "c_hat": ql.c_hat, "Q_hat": qt["Q_hat"],
        "ratio": rep["ratio"], "stable": rep["stable"],
        "stability": rep["stability"], "dim_max": args.dim_max,
        "box_halfwidth": rep["box_halfwidth"],
        "constants": f.constants.to_report(),
    }


def _certify_quasilinear(args) -> tuple[bool, dict]:
    space = from_preset(args.preset, with_envelope=False)
    res = quasi_linearity_constant(space, args.trials, args.dim_max, args.seed)
    vals = list(res.per_dim.values())
    spread = max(vals) / min(vals) if min(vals) > 0 else math.inf
    ok = bool(math.isfinite(res.c_hat) and res.c_hat > 0 and spread <= 2.0)
    return ok, {
        "kind": "quasilinear", "preset": args.preset, "c_hat": res.c_hat,
        "per_dim": res.per_dim, "dim_spread": spread,
        "witness": res.witness, "dim_max": args.dim_max,
    }


def _certify_triangle(args) -> tuple[bool, dict]:
    pipe = build_pipeline(args.pipeline, rng_seed=args.seed)
    worst = triangle_violation(pipe.norm, args.trials, args.seed)
    ok = bool(worst <= 1e-10)
    return ok, {
        "kind": "triangle", "pipeline": args.pipeline,
        "max_violation": worst, "alpha": pipe.g.alpha, "M": pipe.g.M,
    }


def _certify_suff(args) -> tuple[bool, dict]:
    pipe = build_pipeline(args.pipeline, rng_seed=args.seed)
    d = pipe.norm.dim
    worst = math.inf
    checked = 0
    for _, u in sampling.slices(args.seed, sampling.SUFF, 0, args.trials,
                                2 + 8 * d):
        margins = suff_margins(pipe.norm, pipe.phitilde, _random_blocks(u, d),
                               np.where(u[:, -1] > 0.0, u[:, -1], 0.5))
        worst = min(worst, float(margins.min(initial=math.inf)))
        checked += margins.size
    ok = bool(worst >= -CHECK_TOL)
    return ok, {
        "kind": "suff", "pipeline": args.pipeline,
        "min_margin": None if worst == math.inf else worst,
        "steps_checked": checked,
    }


def _certify_property_m(args) -> tuple[bool, dict]:
    pipe = build_pipeline(args.pipeline, rng_seed=args.seed)
    d = pipe.norm.dim
    worst = 0.0
    for _, u in sampling.slices(args.seed, sampling.PROPERTY_M, 0,
                                args.trials, 3 * (1 + 8 * d)):
        diffs, reason = substitution_differences(
            pipe.norm, *(_random_blocks(w, d) for w in np.split(u, 3, axis=1)))
        if reason:
            raise NumericSignal(
                f"constructed triple failed its precondition: {reason}")
        worst = max(worst, float(diffs.max()))
    ok = bool(worst <= CHECK_TOL)
    return ok, {
        "kind": "property-m", "pipeline": args.pipeline,
        "max_difference": worst,
    }


_CERTIFIERS = {
    "quasiconvex": _certify_quasiconvex,
    "equivalence": _certify_equivalence,
    "quasilinear": _certify_quasilinear,
    "triangle": _certify_triangle,
    "suff": _certify_suff,
    "property-m": _certify_property_m,
}


def cmd_certify(args) -> tuple[str, dict, int]:
    ok, body = _CERTIFIERS[args.kind](args)
    return (f"certify {args.kind}: {'PASS' if ok else 'FAIL'}",
            {**body, "pass": ok}, 0 if ok else 1)


def cmd_renorm(args) -> tuple[str, dict, int]:
    pipe = build_pipeline(args.pipeline, rng_seed=args.seed)
    if args.kind == "build":
        worst = triangle_violation(pipe.norm, args.trials, args.seed)
        line = (f"renorm build {args.pipeline}: alpha={pipe.g.alpha:g} "
                f"M={pipe.g.M:.12g} triangle_max={worst:.3e}")
        return line, {
            "command": "renorm build", "pipeline": args.pipeline,
            "alpha": pipe.g.alpha, "M": pipe.g.M,
            "triangle_max_violation": worst,
            "decreasing_ok": pipe.report()["decreasing_ok"],
            "N_unit": pipe.report()["N_unit"],
        }, 0
    # check: the step criterion walks the blocks once; its values give Lambda
    xi = BlockSeq.from_json(Path(args.blocks).read_text())
    rep = suff_criterion_check(pipe.norm, pipe.phitilde, xi)
    lam = max(rep.values) if rep.values else 0.0
    return f"renorm check: lambda_norm={lam!r} suff_ok={rep.ok}", {
        "command": "renorm check", "pipeline": args.pipeline,
        "input": args.blocks, "values": rep.values, "lambda_norm": lam,
        "suff_ok": rep.ok, "steps_checked": rep.checked,
        "min_margin": (None if rep.min_margin == math.inf
                       else rep.min_margin),
        "log_products": rep.log_products,
    }, 0 if rep.ok else 1


def cmd_lambda_norm(args) -> tuple[str, dict, int]:
    pipe = build_pipeline(args.pipeline, rng_seed=args.seed)
    xi = BlockSeq.from_json(Path(args.blocks).read_text())
    values = star_iterate(pipe.norm, xi)
    lam = max(values) if values else 0.0
    return f"lambda norm = {lam!r}", {
        "command": "lambda-norm", "pipeline": args.pipeline,
        "input": args.blocks, "lambda_norm": lam, "values": values,
    }, 0


# --------------------------------------------------------------------------
# parser


# name: keyword arguments of its option --name
_FLAGS = {
    "preset": dict(default="z2", help=SPACE_PRESETS),
    "pipeline": dict(default="t2-pipeline", help=", ".join(PIPELINES)),
    "seq": dict(required=True, help="sequence JSON file"),
    "pair": dict(required=True, help="pair JSON file (dim 2)"),
    "blocks": dict(required=True, help="block JSON file"),
    "csv": dict(default=None, help="CSV output path"),
    "type-p": dict(type=float, default=None,
                   help="override the claimed growth exponent"),
    "dim-max": dict(type=int, default=64),
    "trials": dict(type=int, default=10_000),
    "seed": dict(type=int, default=20240501),
    "resolution": dict(type=int, default=41),
    "box": dict(type=float, default=2.0, dest="box_halfwidth", metavar="BOX"),
    "out": dict(default=None, help="write the JSON report here"),
}

# command: (help, handler, the flags it reads besides --out), or for a
# command with sub-commands (help, handler, {args.kind: flags})
_COMMANDS = {
    "norm": ("Luxemburg or twisted norm of a file", cmd_norm, "preset seq"),
    "twisted-norm": ("twisted quasi-norm of a pair file", cmd_twisted_norm,
                     "preset pair"),
    "envelope": ("grid convex envelope as CSV", cmd_envelope,
                 "preset csv resolution box"),
    "certify": ("run a seeded certificate", cmd_certify, {
        "quasiconvex": "preset type-p trials seed box",
        "equivalence": "preset dim-max trials seed resolution box",
        "quasilinear": "preset dim-max trials seed",
        "triangle": "pipeline trials seed",
        "suff": "pipeline trials seed",
        "property-m": "pipeline trials seed"}),
    "renorm": ("build a renorm pipeline or check blocks", cmd_renorm,
               {"build": "pipeline trials seed",
                "check": "pipeline blocks seed"}),
    "lambda-norm": ("iterated-norm supremum of blocks", cmd_lambda_norm,
                    "pipeline blocks seed"),
}


def _add_flags(p: argparse.ArgumentParser, flags: str) -> None:
    for name in flags.split() + ["out"]:
        p.add_argument("--" + name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twistnorm",
        description="norms, envelopes and seeded certificates for twisted "
                    "Orlicz sequence spaces")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (text, func, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        if isinstance(flags, str):
            _add_flags(p, flags)
            continue
        kinds = p.add_subparsers(dest="kind", required=True)
        for kind, kind_flags in flags.items():
            _add_flags(kinds.add_parser(kind), kind_flags)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if "trials" in args and args.trials < 1:
            raise ValueError("trials must be >= 1")
        if "resolution" in args and (args.resolution < 9
                                     or args.resolution % 2 == 0):
            raise ValueError("resolution must be odd and >= 9")
        if "box_halfwidth" in args and not args.box_halfwidth > 0:
            raise ValueError("box halfwidth must be positive")
        if "dim_max" in args and args.dim_max < 1:
            raise ValueError("dim-max must be >= 1")
        line, body, code = args.func(args)
        print(line)
        write_report(args.out, {**_provenance(args), **body})
        return code
    except NumericSignal as exc:
        print(f"numeric signal: {exc}", file=sys.stderr)
        return 3
    except (ValueError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
