"""Span recorder for the traced benchmark run; standard library only.

``install`` wraps, at run time, the public functions that one twistnorm
module calls in another, wherever the package binds them, and the two
methods other modules call (``GridMap.evaluate``, ``GaugeSpec.gauge``).
The program's files are not changed.  Each wrapper records a span
(name, start, end, parent) and derives work counts from the call's
arguments and result.  Spans stay in memory until ``dump``.

A span's self time is its duration minus the time of its child spans.
The recorder's own bookkeeping is charged to no layer, so the layer self
times plus ``bench.self_s`` add up to the traced wall time.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

clock = time.perf_counter


class Recorder:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.stack = []          # open spans: [index, child seconds, name]
        self.self_s = {}         # metric -> self seconds
        self.counts = {}         # counter -> value
        self.envelopes = []      # every envelope built, kept alive for ids
        self.held = set()        # ids of envelopes whose box held

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def inside(self, name: str) -> bool:
        return any(frame[2] == name for frame in self.stack)

    def call(self, name, metric, fn, count, args, kwargs):
        enter = clock()
        parent = self.stack[-1] if self.stack else None
        frame = [len(self.spans), 0.0, name]
        self.spans.append(None)
        self.stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            self.stack.pop()
            self.spans[frame[0]] = (name, start, end,
                                    parent[0] if parent else -1)
            self.self_s[metric] = (self.self_s.get(metric, 0.0)
                                   + (end - start) - frame[1])
            if parent is not None:
                parent[1] += end - enter
        if count is not None:
            count(self, args, kwargs, result)
        if parent is not None:
            parent[1] += clock() - end
        return result

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"summary": summary(self), "spans": self.spans}, fh,
                      separators=(",", ":"))


# --------------------------------------------------------------------------
# counters: each reads the call's arguments and result


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_certify(rec, args, kwargs, result):
    rec.add("scalarfn.certify_calls", 1)


def _count_lux(rec, args, kwargs, result):
    import numpy as np
    v = np.asarray(_arg(args, kwargs, 1, "vectors"))
    rec.add("seqspace.lux_calls", 1)
    rec.add("seqspace.lux_rows", v.shape[0])
    rec.add("seqspace.lux_cells", v.size)
    rec.add("seqspace.lux_nonzero", int(np.count_nonzero(v)))


def _count_envelope(rec, args, kwargs, result):
    rec.add("youngmap.envelope_calls", 1)
    rec.add("youngmap.envelope_nodes", int(result.nodes.shape[0]))
    rec.envelopes.append(result)


def _count_grid_eval(rec, args, kwargs, result):
    rec.add("youngmap.grid_eval_points", int(result.size))


def _count_mollify(rec, args, kwargs, result):
    rec.add("youngmap.mollify_calls", 1)


def _count_per_dim(trials, per_dim):
    return max(1, trials // len(per_dim)) * len(per_dim)


def _count_quasilinear(rec, args, kwargs, result):
    trials = _arg(args, kwargs, 1, "trials")
    rec.add("twisted.pairs_sampled", _count_per_dim(trials, result.per_dim))


def _count_quasitriangle(rec, args, kwargs, result):
    trials = _arg(args, kwargs, 1, "trials")
    rec.add("twisted.pairs_sampled", _count_per_dim(trials, result["per_dim"]))


def _count_equivalence(rec, args, kwargs, result):
    space = _arg(args, kwargs, 0, "space")
    doublings = round(math.log2(result["box_halfwidth"] / space.box_halfwidth))
    rec.add("twisted.pairs_sampled", 2 * _arg(args, kwargs, 1, "trials"))
    rec.add("twisted.box_doublings", doublings)
    # the envelope of the final box held: the last one built, or the input's
    rec.held.add(id(rec.envelopes[-1]) if doublings else id(space.psi))


def _count_select_alpha(rec, args, kwargs, result):
    rec.add("renorm.alpha_halvings", round(-math.log2(result.alpha)))


def _count_gauge(rec, args, kwargs, result):
    rec.add("renorm.gauge_points", int(result.size))


def _count_lambda(rec, args, kwargs, result):
    rec.add("renorm.lambda_calls", 1)
    if rec.inside("renorm.match_lambda_norm"):
        rec.add("renorm.lambda_calls_in_match", 1)


def _count_star_iterate(rec, args, kwargs, result):
    rec.add("renorm.blocks_iterated", len(result))


def _count_match(rec, args, kwargs, result):
    rec.add("renorm.match_calls", 1)


# (module, attribute, span name, metric of its self time, counter)
FUNCTIONS = [
    ("scalarfn", "certify", "scalarfn.certify", "scalarfn.certify_s",
     _count_certify),
    ("seqspace", "luxemburg_norm_batch", "seqspace.luxemburg_norm_batch",
     "seqspace.lux_s", _count_lux),
    ("youngmap", "convex_envelope", "youngmap.convex_envelope",
     "youngmap.envelope_s", _count_envelope),
    ("youngmap", "quasiconvexity_constant", "youngmap.quasiconvexity_constant",
     "youngmap.quasiconvex_s", None),
    ("youngmap", "mollify", "youngmap.mollify", "youngmap.mollify_s",
     _count_mollify),
    ("twisted", "quasi_linearity_constant", "twisted.quasi_linearity_constant",
     "twisted.quasilinear_s", _count_quasilinear),
    ("twisted", "quasi_triangle_constant", "twisted.quasi_triangle_constant",
     "twisted.triangle_s", _count_quasitriangle),
    ("twisted", "equivalence_certificate", "twisted.equivalence_certificate",
     "twisted.equivalence_s", _count_equivalence),
    ("twisted", "twisted_norm_batch", "twisted.twisted_norm_batch",
     "twisted.norm_batch_s", None),
    ("renorm", "select_alpha", "renorm.select_alpha", "renorm.select_alpha_s",
     _count_select_alpha),
    ("renorm", "build_star_norm", "renorm.build_star_norm",
     "renorm.star_norm_s", None),
    ("renorm", "lambda_norm", "renorm.lambda_norm", "renorm.lambda_s",
     _count_lambda),
    ("renorm", "star_iterate", "renorm.star_iterate", "renorm.lambda_s",
     _count_star_iterate),
    ("renorm", "match_lambda_norm", "renorm.match_lambda_norm",
     "renorm.match_s", _count_match),
    ("renorm", "suff_criterion_check", "renorm.suff_criterion_check",
     "renorm.suff_s", None),
    ("renorm", "prefix_substitution_check",
     "renorm.prefix_substitution_check", "renorm.prefix_s", None),
    ("renorm", "triangle_violation", "renorm.triangle_violation",
     "renorm.triangle_s", None),
]

# (module, class, method, span name, metric, counter)
METHODS = [
    ("youngmap", "GridMap", "evaluate", "youngmap.GridMap.evaluate",
     "youngmap.grid_eval_s", _count_grid_eval),
    ("renorm", "GaugeSpec", "gauge", "renorm.GaugeSpec.gauge",
     "renorm.gauge_s", _count_gauge),
]


def _wrapper(rec, name, metric, fn, count):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return rec.call(name, metric, fn, count, args, kwargs)
    return wrapped


def install(rec: Recorder) -> None:
    """Wrap every binding of the traced functions in the loaded package."""
    package = [m for n, m in sys.modules.items()
               if n == "twistnorm" or n.startswith("twistnorm.")]
    for mod, attr, name, metric, count in FUNCTIONS:
        orig = getattr(sys.modules[f"twistnorm.{mod}"], attr)
        wrapped = _wrapper(rec, name, metric, orig, count)
        for module in package:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapped)
    for mod, cls_name, attr, name, metric, count in METHODS:
        cls = getattr(sys.modules[f"twistnorm.{mod}"], cls_name)
        setattr(cls, attr, _wrapper(rec, name, metric, getattr(cls, attr),
                                    count))


# per-layer metrics reported by the traced run, in output order, with
# their units; BENCHMARK.json lists the same names and units
LAYER_UNITS = {
    "scalarfn.certify_calls": "count",
    "scalarfn.certify_s": "s",
    "seqspace.lux_calls": "count",
    "seqspace.lux_rows": "count",
    "seqspace.lux_cells": "count",
    "seqspace.lux_nonzero_share": "1",
    "seqspace.lux_s": "s",
    "seqspace.lux_rows_per_s": "1/s",
    "youngmap.envelope_calls": "count",
    "youngmap.envelope_nodes": "count",
    "youngmap.envelope_s": "s",
    "youngmap.envelope_s_per_node": "s",
    "youngmap.grid_eval_points": "count",
    "youngmap.grid_eval_s": "s",
    "youngmap.quasiconvex_s": "s",
    "youngmap.mollify_calls": "count",
    "youngmap.mollify_s": "s",
    "twisted.quasilinear_s": "s",
    "twisted.triangle_s": "s",
    "twisted.equivalence_s": "s",
    "twisted.norm_batch_s": "s",
    "twisted.pairs_sampled": "count",
    "twisted.box_doublings": "count",
    "twisted.envelope_useful_share": "1",
    "renorm.select_alpha_s": "s",
    "renorm.alpha_halvings": "count",
    "renorm.star_norm_s": "s",
    "renorm.gauge_points": "count",
    "renorm.gauge_s": "s",
    "renorm.lambda_calls": "count",
    "renorm.blocks_iterated": "count",
    "renorm.lambda_s": "s",
    "renorm.match_s": "s",
    "renorm.lambda_calls_per_match": "1",
    "renorm.suff_s": "s",
    "renorm.prefix_s": "s",
    "renorm.triangle_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "bench.trace_overhead_share": "1",
    "bench.self_s": "s",
}

SECONDS = [m for m in LAYER_UNITS
           if m.endswith("_s") and not m.startswith("bench.")]


def summary(rec: Recorder) -> dict:
    """Self seconds and counters of one traced process, mergeable by sum."""
    out = {m: rec.self_s.get(m, 0.0) for m in SECONDS}
    out.update(rec.counts)
    out["envelopes_built"] = len(rec.envelopes)
    out["envelopes_held"] = len(rec.held)
    out["spans"] = len(rec.spans)
    return out


def merge(parts) -> dict:
    total = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(s: dict, wall_traced: float, wall_plain: float) -> dict:
    """Per-layer metrics from merged summaries and the two wall times.

    A ratio whose base is zero (the layer did not run) reads 0.
    """
    c = lambda k: s.get(k, 0)
    derived = {
        "seqspace.lux_nonzero_share": _ratio(c("seqspace.lux_nonzero"),
                                             c("seqspace.lux_cells")),
        "seqspace.lux_rows_per_s": _ratio(c("seqspace.lux_rows"),
                                          c("seqspace.lux_s")),
        "youngmap.envelope_s_per_node": _ratio(c("youngmap.envelope_s"),
                                               c("youngmap.envelope_nodes")),
        "twisted.envelope_useful_share": _ratio(c("envelopes_held"),
                                                c("envelopes_built")),
        "renorm.lambda_calls_per_match": _ratio(
            c("renorm.lambda_calls_in_match"), c("renorm.match_calls")),
        "bench.trace_overhead_share": (wall_traced - wall_plain) / wall_plain,
        "bench.self_s": wall_traced - sum(c(m) for m in SECONDS),
    }
    return {m: float(derived[m] if m in derived else c(m))
            for m in LAYER_UNITS}
