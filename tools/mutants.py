"""Mutation smoke for the differential oracles.

    python3 tools/mutants.py            # every mutant in the table
    python3 tools/mutants.py NAME ...   # the named mutants only

Run from the repository root.  Each entry of MUTANTS names a module of
src/twistnorm, an exact source snippet that must occur in it once, the
replacement, and the test node ids that must fail.  For each entry the
script copies src/ to a temporary directory, patches the copy, runs those
tests against it and prints the time taken and "killed" when each of them
fails in at least one of its cases, else "survived" with the tests that
never failed.  A snippet that no longer occurs exactly once stops the run:
a refactor must update the table.  The exit status is 1 if any mutant
survived.  Stdlib only; the run takes one pytest process per mutant, so it
is not part of tier-1.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEQ, TW = "tests/test_seqspace.py", "tests/test_twisted.py"
YM, RN = "tests/test_youngmap.py", "tests/test_renorm.py"
SM, CLI = "tests/test_sampling.py", "tests/test_cli.py"
SF = "tests/test_scalarfn.py"

# name: (module, snippet, replacement, tests that must fail)
MUTANTS = {
    "pairwise-modular-sum": (
        "seqspace", "return np.add.accumulate(vals, axis=-1)[:, -1]",
        "return vals.sum(axis=-1)",
        [f"{SEQ}::test_every_batch_row_is_its_one_row_solve"]),
    "support-from-x-alone": (
        "seqspace", "for a in arrays:", "for a in arrays[:1]:",
        [f"{TW}::test_twisted_norm_batch_is_the_dense_form",
         f"{TW}::test_stacked_draws_are_the_per_call_draws"]),
    "scatter-position-off-by-one": (
        "seqspace", "dest = np.arange(flat.size) + np.repeat(",
        "dest = np.arange(flat.size) - 1 + np.repeat(",
        [f"{SEQ}::test_packed_batch_matches_dense",
         f"{SEQ}::test_compact_rows_keeps_the_shared_support_in_order"]),
    # the closed form of a map with a degree, kept only where it brackets
    "closed-form-unverified": (
        "seqspace", "    if bad.size:\n", "    if False:\n",
        [f"{SEQ}::test_a_wrong_degree_falls_back_to_the_search"]),
    "closed-form-insets-swapped": (
        "seqspace", "[root * (1.0 - inset), root * (1.0 + inset)]",
        "[root * (1.0 + inset), root * (1.0 - inset)]",
        [f"{SEQ}::test_power_batch_takes_two_evaluations"]),
    "closed-form-root-to-the-p": (
        "seqspace", "modular_fn(start, rows) ** (1.0 / p)",
        "modular_fn(start, rows) ** p",
        [f"{SEQ}::test_power_batch_takes_two_evaluations"]),
    "closed-form-zero-root-kept": (
        "seqspace",
        "    root = np.where(np.isfinite(root) & (root > 0.0), root, start)\n",
        "",
        [f"{SEQ}::test_a_degree_map_that_vanishes_on_a_row_raises_as_the_"
         "search_does"]),
    # Illinois false position under a bisection budget
    "illinois-no-halving": (
        "seqspace", "weight[1 - end[twice], rows[twice]] *= 0.5",
        "weight[1 - end[twice], rows[twice]] *= 1.0",
        [f"{SEQ}::test_illinois_rows_take_few_modular_evaluations"]),
    "illinois-halve-the-moved-end": (
        "seqspace", "weight[1 - end[twice], rows[twice]] *= 0.5",
        "weight[end[twice], rows[twice]] *= 0.5",
        [f"{SEQ}::test_illinois_rows_take_few_modular_evaluations"]),
    "illinois-forget-the-moved-end": (
        "seqspace", "        moved[rows] = end\n", "",
        [f"{SEQ}::test_illinois_rows_take_few_modular_evaluations"]),
    "budget-one-more-false-position": (
        "seqspace", "steps + _bisections(width) <= budget[rows]",
        "steps + _bisections(width) <= budget[rows] + 1",
        [f"{SEQ}::test_a_stalled_false_position_keeps_the_bisection_budget"]),
    "quasilinear-split-swapped": (
        "twisted", "nx, ny, ns = np.split(norms, 3)",
        "ns, ny, nx = np.split(norms, 3)",
        [f"{TW}::test_stacked_draws_are_the_per_call_draws"]),
    "triangle-split-swapped": (
        "twisted", "num, n1, n2 = np.split(norms, 3)",
        "n1, num, n2 = np.split(norms, 3)",
        [f"{TW}::test_stacked_draws_are_the_per_call_draws"]),
    # the grid kernel: one pass per axis, one take per corner
    "grid-sum-from-first-corner": (
        "youngmap", "            out += vals\n",
        "            out = vals.copy() if corner == 0 else out + vals\n",
        [f"{YM}::test_grid_evaluate_is_bitwise_the_two_pass_form"]),
    "grid-weight-product-reversed": (
        "youngmap", "weight = weights[0][hi[0]]\n"
        "            for i in range(1, self.dim):",
        "weight = weights[-1][hi[-1]]\n"
        "            for i in range(self.dim - 2, -1, -1):",
        [f"{YM}::test_grid_evaluate_is_bitwise_the_two_pass_form"]),
    "grid-divide-by-reciprocal": (
        "youngmap", "x /= (ax[1:] - ax[:-1]).take(j)",
        "x *= (1.0 / (ax[1:] - ax[:-1])).take(j)",
        [f"{YM}::test_grid_evaluate_is_bitwise_the_two_pass_form"]),
    "grid-block-slice-off-by-one": (
        "youngmap", "part = slice(start, start + _BLOCK)",
        "part = slice(start, start + _BLOCK - 1)",
        [f"{YM}::test_grid_evaluate_is_bitwise_its_slices"]),
    # mollify averages one node of each mirror pair and copies the other
    "mirror-unreversed": (
        "youngmap", "return np.concatenate([vals, vals[-2::-1]])",
        "return np.concatenate([vals, vals[:-1]])",
        [f"{YM}::test_mollify_is_the_average_at_every_node"]),
    "evenness-guard-off": (
        "youngmap", "    if gap.any():\n", "    if False:\n",
        [f"{YM}::test_mollify_rejects_a_map_that_is_not_even"]),
    "ball-rule-writable": (
        "youngmap", "    pts.flags.writeable = wts.flags.writeable = False\n",
        "",
        [f"{YM}::test_ball_rule_is_built_once_and_read_only"]),
    # reports hold finite numbers only
    "step-margins-everywhere": (
        "renorm", "return (values[:, 1:][checked]\n"
        "            - prev[checked] * (1.0 + phis[:, 1:][checked]))",
        "return (values[:, 1:] - prev * (1.0 + phis[:, 1:]))[checked]",
        [f"{CLI}::test_renorm_check_report_is_strict_json"]),
    "report-keeps-infinity": (
        "cli", "        if not math.isfinite(obj):\n",
        "        if False:\n",
        [f"{CLI}::test_non_finite_report_value_is_a_numeric_signal"]),
    # the scaled extension behind phitilde and N
    "outside-test-drops-nan": (
        "renorm", "idx = np.flatnonzero(~(inner <= g.alpha))",
        "idx = np.flatnonzero(inner > g.alpha)",
        [f"{RN}::test_walk_is_bitwise_the_scalar_loop"]),
    "outside-term-regrouped": (
        "renorm", "out[idx] = s_out * g.alpha + g.M * (gauge - s_out)",
        "out[idx] = s_out * (g.alpha - g.M) + g.M * gauge",
        [f"{RN}::test_phitilde_matches_gauge_branching"]),
    "outside-take-off-by-one": (
        "renorm", ".take(idx, axis=0)", ".take(idx - 1, axis=0)",
        [f"{RN}::test_phitilde_matches_gauge_branching",
         f"{RN}::test_star_norm_gauges_only_outside"]),
    # the level constant: a central radial difference bounds the left one
    "level-constant-forward-difference": (
        "renorm",
        "np.stack([(1.0 + h) * pts, (1.0 - h) * pts]))\n"
        "    return float(np.max((up - down) / (2.0 * h)))",
        "np.stack([(1.0 + h) * pts, pts]))\n"
        "    return float(np.max((up - down) / h))",
        [f"{RN}::test_select_alpha_matches_the_ray_ceiling",
         f"{RN}::test_select_alpha_builds_a_certified_norm",
         f"{RN}::test_pipeline_reports_are_pinned"]),
    # the certificate runs on the extension N evaluates, built from g
    "certify-the-base": (
        "renorm", "vals = (1.0 + phitilde.evaluate(pts)) / t[None, :]",
        "vals = (1.0 + g.base.evaluate(pts)) / t[None, :]",
        [f"{RN}::test_pipeline_reports_are_pinned"]),
    # checks (a) and (b) run in blocks; every point is evaluated once
    "last-ray-block-dropped": (
        "renorm", "for start in range(0, len(rays), per_block):",
        "for start in range(0, len(rays) - per_block, per_block):",
        [f"{RN}::test_star_norm_checks_evaluate_each_point_once_in_order"]),
    # each check reads its sample by rows of its own keyed stream
    "b-reads-a-column": (
        "renorm", "b = a * (1.0 + u[:, -1])", "b = a * (1.0 + u[:, -2])",
        [f"{RN}::test_blocked_checks_are_the_whole_array_checks",
         f"{RN}::test_blocked_checks_are_the_whole_array_checks_at_seed_9",
         f"{RN}::test_star_norm_checks_evaluate_each_point_once_in_order",
         f"{RN}::test_pipeline_reports_are_pinned"]),
    # N is even in x, so wrong signs move no report: only the spy sees them
    "signs-from-magnitude-columns": (
        "renorm", "u[:, dim:2 * dim]", "u[:, :dim]",
        [f"{RN}::test_star_norm_checks_evaluate_each_point_once_in_order"]),
    "probes-on-the-tuples-key": (
        "renorm", "sampling.STAR_PROBES, 0, 64", "sampling.STAR_TUPLES, 0, 64",
        [f"{RN}::test_blocked_checks_are_the_whole_array_checks",
         f"{RN}::test_blocked_checks_are_the_whole_array_checks_at_seed_9",
         f"{RN}::test_star_norm_checks_evaluate_each_point_once_in_order",
         f"{RN}::test_pipeline_reports_are_pinned"]),
    # the index table is walked in blocks of lam rows
    "last-partial-index-block-dropped": (
        "scalarfn", "for i in range(0, lam.size, step):",
        "for i in range(0, lam.size - lam.size % step, step):",
        [f"{SF}::test_index_walk_is_the_whole_table"]),
    "certify-another-extension": (
        "renorm", "phitilde = build_phitilde(g)\n",
        "phitilde = build_phitilde(GaugeSpec(g.base, g.alpha, 1.0, "
        "g.unit_scale))\n",
        [f"{RN}::test_star_norm_certificate_failure",
         f"{RN}::test_pipeline_reports_are_pinned"]),
    "pipeline-hands-the-base": (
        "renorm", "phitilde=build_phitilde(g),", "phitilde=g.base,",
        [f"{RN}::test_n_evaluates_the_certified_extension"]),
    # the batched walk and the certificates around it
    "walk-value-not-carried": (
        "renorm", "values[:, j] = v = v + _scaled_extension(",
        "values[:, j] = v + _scaled_extension(",
        [f"{RN}::test_walk_is_bitwise_the_scalar_loop"]),
    "walk-step-by-reciprocal": (
        "renorm", "x / v[:, None])", "x * (1.0 / v[:, None]))",
        [f"{RN}::test_walk_is_bitwise_the_scalar_loop"]),
    # one sequence walks on Python floats; a float64 reciprocal, as 1 / 0.0
    # on a Python float raises at the first step and shows no rounding
    "one-walk-step-by-reciprocal": (
        "renorm", "base(rows[j:j + 1] / v)",
        "base(rows[j:j + 1] * (1.0 / np.float64(v)))",
        [f"{RN}::test_walk_is_bitwise_the_scalar_loop",
         f"{RN}::test_bisected_walk_is_bitwise_the_scalar_loop"]),
    "one-walk-outside-regrouped": (
        "renorm", "v * alpha + M * (gauge - v)", "v * (alpha - M) + M * gauge",
        [f"{RN}::test_walk_is_bitwise_the_scalar_loop"]),
    "one-walk-nan-inside": (
        "renorm", "if inner <= alpha else", "if not inner > alpha else",
        [f"{RN}::test_walk_is_bitwise_the_scalar_loop",
         f"{RN}::test_bisected_walk_is_bitwise_the_scalar_loop"]),
    "star-norm-passes-nan": (
        "renorm", "if not decreasing_max <= 1e-10:",
        "if decreasing_max > 1e-10:",
        [f"{RN}::test_star_norm_certificate_reading_nan_raises"]),
    "prefix-mask-le": (
        "renorm", "lam = pick(cols < n)", "lam = pick(cols <= n)",
        [f"{RN}::test_substitution_differences_are_the_per_triple_checks"]),
    "batch-rescale-4e-16": (
        "renorm", "blocks = _rescale(blocks, _walk(norm, blocks).max(axis=1, "
        "initial=0.0),\n                      targets)",
        "blocks = _rescale(blocks, _walk(norm, blocks).max(axis=1, "
        "initial=0.0),\n                      targets * (1.0 + 4e-16))",
        [f"{RN}::test_suff_margins_are_the_per_sequence_checks"]),
    # each command takes, and its report echoes, only the flags it reads
    "provenance-after-result": (
        "cli", "{**_provenance(args), **body}", "{**body, **_provenance(args)}",
        [f"{CLI}::test_equivalence_reports_the_box_it_ran_on"]),
    # main alone prints, writes and returns what a command reports
    "main-drops-the-exit-code": (
        "cli", "        return code\n", "        return 0\n",
        [f"{CLI}::test_certify_failure_exits_one",
         f"{CLI}::test_main_prints_the_line_then_the_report"]),
    "unread-flag-restored": (
        "cli", 'cmd_norm, "preset seq"),', 'cmd_norm, "preset seq trials"),',
        [f"{CLI}::test_each_command_takes_only_the_flags_it_reads",
         f"{CLI}::test_an_unread_flag_exits_two"]),
    "fold-checked-assigned": (
        "cli", "checked += margins.size", "checked = margins.size",
        ["tests/test_cli.py::test_certify_walks_trials_in_batches"]),
    # one keyed stream per purpose, read by rows, sliced in sampling alone
    "advance-by-rows": (
        "sampling", "g.bit_generator.advance(start * width)",
        "g.bit_generator.advance(start)",
        [f"{SM}::test_slices_are_rows_of_one_keyed_stream",
         f"{SM}::test_chunk_sizes_cover_total",
         f"{SM}::test_results_do_not_depend_on_chunk",
         "tests/test_cli.py::test_certify_walks_trials_in_batches",
         f"{RN}::test_blocked_checks_are_the_whole_array_checks"]),
    "reader-drops-last-partial-slice": (
        "sampling", "for start in range(0, n, size):",
        "for start in range(0, n - n % size, size):",
        [f"{SM}::test_chunk_sizes_cover_total",
         f"{RN}::test_star_norm_checks_evaluate_each_point_once_in_order",
         "tests/test_cli.py::test_certify_walks_trials_in_batches"]),
    "lambda-half-per-chunk": (
        "youngmap", "lam[-start % 16::16] = 0.5", "lam[::16] = 0.5",
        [f"{SM}::test_results_do_not_depend_on_chunk"]),
    "identity-rows-per-chunk": (
        "youngmap", "t2[:max(8 - start, 0)] = t1[:max(8 - start, 0)]",
        "t2[:8] = t1[:8]",
        [f"{SM}::test_results_do_not_depend_on_chunk"]),
    # the envelope's own lower hull: exact predicate, insertion, certificate
    "hull-predicate-sign-flipped": (
        "youngmap", "                        hit = z > 0\n",
        "                        hit = z < 0\n",
        [f"{YM}::test_envelope_matches_the_qhull_oracle",
         f"{YM}::test_envelope_hull_matches_lp_oracle"]),
    "hull-error-bound-halved": (
        "youngmap", "_FILTER = 5.0 * 2.0 ** -53", "_FILTER = 2.5 * 2.0 ** -53",
        [f"{YM}::test_hull_predicate_is_exact_where_floats_cancel",
         f"{YM}::test_envelope_matches_the_qhull_oracle",
         f"{YM}::test_envelope_of_cospherical_lattice_is_identity"]),
    "hull-no-exact-fallback": (
        "youngmap", "s = sum(ci * n * (den // d) for ci, (n, d) in zip(c, ratios))",
        "s = sum(ci * (n / d) for ci, (n, d) in zip(c, ratios))",
        [f"{YM}::test_hull_predicate_is_exact_where_floats_cancel"]),
    # insertion has no separate 3->1 flip: a node drops out when the
    # conflict region takes its whole star, which this one-ring cap stops
    "hull-conflict-region-one-ring": (
        "youngmap", "                    inside[o] = hit\n",
        "                    hit = hit and s in (-1, t)\n"
        "                    inside[o] = hit\n",
        [f"{YM}::test_envelope_matches_the_qhull_oracle",
         f"{YM}::test_envelope_hull_matches_lp_oracle"]),
    "hull-certificate-skipped": (
        "youngmap",
        "        if np.any(_below(ticks, values, verts[t], far) > 0):\n",
        "        if False:\n",
        [f"{YM}::test_hull_certificate_checks_every_interior_edge"]),
    # the envelope's guard: 1e-9 plus the weighted sum's rounding bound
    "envelope-guard-rounding-dropped": (
        "youngmap", "slack = 1e-9 + _ENV_ROUNDING * np.einsum(",
        "slack = 1e-9 + 0.0 * np.einsum(",
        [f"{YM}::test_envelope_guard_is_the_sums_rounding_bound",
         f"{CLI}::test_envelope_of_zp35_is_certified_at_resolution_41"]),
    "envelope-guard-bound-tenfold": (
        "youngmap", "_ENV_ROUNDING = 5.0 * 2.0 ** -53",
        "_ENV_ROUNDING = 50.0 * 2.0 ** -53",
        [f"{YM}::test_envelope_guard_is_the_sums_rounding_bound"]),
    # certify's sweeps fill views of one sweep's scratch, block by block
    "scratch-view-untrimmed": (
        "scalarfn", "rows = min(max(1, _BLOCK_CELLS // width), n_rows - i)",
        "rows = max(1, _BLOCK_CELLS // width)",
        [f"{SF}::test_table_sup_matches_dense_oracle",
         f"{SF}::test_table_sup_hands_every_block_the_same_scratch",
         f"{SF}::test_in_place_sweeps_are_the_allocating_sweeps"]),
    "clean-block-with-zero-den": (
        "scalarfn", "if not (den.min() > 0.0 and", "if not (den.min() >= 0.0 and",
        [f"{SF}::test_table_sup_matches_dense_oracle"]),
    # the type cell's power then reads the block before's ratios
    "type-power-reads-previous-block": (
        "scalarfn", "np.multiply(lam[r], s[c], out=num)",
        "np.multiply(lam[r], s[c], out=spare)",
        [f"{SF}::test_in_place_sweeps_are_the_allocating_sweeps",
         f"{SF}::test_certify_report_is_pinned"]),
    "power-log-reads-previous-spare": (
        "scalarfn", "spare = np.log1p(t, out=spare)",
        "spare = np.log1p(t) if spare is None else spare",
        [f"{SF}::test_in_place_sweeps_are_the_allocating_sweeps",
         f"{SF}::test_certify_report_is_pinned"]),
    # one in-place formula per kind, which value runs on a fresh |x|
    "value-fills-the-callers-array": (
        "scalarfn", "t = np.abs(x, out=np.empty(np.shape(x)), dtype=float)",
        "t = np.asarray(x, dtype=float)\n        np.abs(t, out=t)",
        [f"{SF}::test_value_is_the_allocating_formula_on_edge_inputs"]),
    "power-log-one-dropped": (
        "scalarfn", "            spare += 1.0\n", "",
        [f"{SF}::test_value_is_the_allocating_formula_on_edge_inputs",
         f"{SF}::test_in_place_sweeps_are_the_allocating_sweeps",
         f"{SF}::test_certify_report_is_pinned"]),
    # one cofactor routine for the hull predicate, its checks and the weights
    "cofactor-columns-rotated": (
        "youngmap",
        "np.column_stack([cross(b, c), cross(c, a), cross(a, b)])",
        "np.column_stack([cross(c, a), cross(a, b), cross(b, c)])",
        [f"{YM}::test_envelope_matches_the_qhull_oracle",
         f"{YM}::test_envelope_hull_matches_lp_oracle"]),
    "segment-cofactors-swapped": (
        "youngmap", "np.column_stack([u[:, 1, 0], -u[:, 0, 0]])",
        "np.column_stack([-u[:, 0, 0], u[:, 1, 0]])",
        [f"{YM}::test_envelope_double_well_oracle"]),
    "counter-clockwise-check-skipped": (
        "youngmap", "_cofactors(corners, corners[:, 0]).sum(axis=1) <= 0",
        "False",
        [f"{YM}::test_hull_certificate_rejects_a_clockwise_triangle"]),
    "location-drops-nodes-on-edges": (
        "youngmap", "inside = np.all(weights >= 0, axis=1)",
        "inside = np.all(weights > 0, axis=1)",
        [f"{YM}::test_envelope_matches_the_qhull_oracle",
         f"{YM}::test_envelope_hull_matches_lp_oracle",
         f"{YM}::test_envelope_of_cospherical_lattice_is_identity"]),
}


def run(name, module, snippet, replacement, tests):
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(src, "twistnorm", module + ".py")
        with open(path) as fh:
            text = fh.read()
        if text.count(snippet) != 1:
            sys.exit(f"{name}: the snippet occurs {text.count(snippet)} "
                     f"times in {module}.py, not once; update the table")
        with open(path, "w") as fh:
            fh.write(text.replace(snippet, replacement))
        report = os.path.join(tmp, "report.xml")
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        subprocess.run([sys.executable, "-m", "pytest", "-q",
                        "-p", "no:cacheprovider", f"--junitxml={report}",
                        *tests], cwd=ROOT, env=env, capture_output=True)
        failed = {f"{c.get('classname')}::{c.get('name').split('[')[0]}"
                  for c in ET.parse(report).iter("testcase")
                  if c.find("failure") is not None
                  or c.find("error") is not None}
    # a test id is killed when at least one of its parametrized cases fails
    return [t for t in tests
            if t.replace(".py::", "::").replace("/", ".") not in failed]


def main(names):
    survived = 0
    for name in names or MUTANTS:
        start = time.perf_counter()
        alive = run(name, *MUTANTS[name])
        verdict = "survived " + ", ".join(alive) if alive else "killed"
        print(f"{name:32s} {time.perf_counter() - start:6.1f} s  {verdict}",
              flush=True)
        survived += bool(alive)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
