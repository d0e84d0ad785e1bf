"""twistnorm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/twistnorm``; the
program is imported from there and from nowhere else.  Workloads are
described in perfbench/README.md.  Every workload process is a closed loop
with one client, runs alone, and has its BLAS/OpenMP pools capped at one
thread.

``--trace 0`` measures the end-to-end metrics: two run workers each set
up and repeat the workload's pass for S/2 seconds and at least twice,
with a fresh process that only sets up between them; a task's latency is
the trimmed mean of its repeats (see ``typical``), and setup_s is the
median of the three set-ups (on cli-cold, of five processes that only
import the CLI).  ``--trace 1`` runs a fixed number of passes twice in
fresh processes, plain and with the span recorder of spans.py, and
reports the per-layer metrics and the recorder's overhead.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A task whose check fails, a pass whose results differ from
another pass, or a seed whose results differ from an earlier run of the
same program makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"                 # run outputs; ignored by git
RUN_LIMIT_S = 170.0                # workers still running then are killed
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
END_TO_END = {"setup_s": "s", "solve_s": "s", "task_p50_s": "s",
              "task_tail_s": "s", "peak_rss_mb": "MB"}

sys.path.insert(0, str(HERE))
import spans                                   # noqa: E402
from workloads import WORKLOADS                # noqa: E402


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed task)."""


def source_digest(*dirs: Path) -> str:
    """Digest of the program's and the benchmark's Python files."""
    h = hashlib.sha256()
    for top in dirs:
        for path in sorted(top.rglob("*.py")):
            h.update(str(path.relative_to(top)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def environment(root: Path) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "thread_caps": THREAD_CAPS, "git_commit": git_commit(root)}


class Runner:
    """Spawns workers one at a time under one deadline for the whole run."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.base = [sys.executable, str(HERE / "worker.py"),
                     "--workload", workload, "--seed", str(seed)]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED="0", **THREAD_CAPS)
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, *extra):
        """(seconds from spawn to READY, parsed RESULT or None)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.base + list(extra), cwd=self.root,
                                env=self.env, stdout=subprocess.PIPE,
                                text=True)
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        setup = result = None
        try:
            for line in proc.stdout:
                if line.startswith("READY") and setup is None:
                    setup = time.perf_counter() - t0
                elif line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
            code = proc.wait()
        finally:
            timer.cancel()
            proc.stdout.close()
        if code != 0 or setup is None:
            raise BenchError(f"worker {' '.join(extra)} exited with {code}")
        return setup, result


def typical(repeats: list) -> float:
    """Mean of a task's repeats without their fastest and slowest tenth.

    On a shared host a call of a few milliseconds or less runs either at
    a fast or at a slow speed, up to 1.8 times apart, and the share of
    fast moments changes from run to run.  The fastest repeat, or any
    one quantile, jumps between the two speeds as that share crosses its
    level; a mean moves with the share by degrees.  The trim drops the
    repeats a preemption or a collection stretched.
    """
    ordered = sorted(repeats)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def tail(latencies: list, q: int):
    """Nearest-rank q-th percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def check_digests(results: list, key: str) -> list:
    """Problems found comparing the pass digests within and across runs."""
    digests = {d for r in results for d in r["digests"]}
    if len(digests) != 1:
        return [f"passes of one seed gave {len(digests)} different results"]
    (digest,) = digests
    store = OUT / f"digest-{key}"
    if store.is_file() and store.read_text().strip() != digest:
        return ["results differ from an earlier run of this seed and program"]
    store.write_text(digest + "\n")
    return []


def untraced(runner: Runner, wl, seconds: float, workdir: Path) -> tuple:
    # Two run workers measure half the time each, with set-ups between
    # them, so that a task's repeats are spread over the whole run.
    # Worker i starts on CPU i, so the repeats alternate CPUs.
    run = ["--mode", "run", "--seconds", str(seconds / 2)]
    if wl.name == "cli-cold":
        # set-up here is a cold interpreter importing twistnorm.cli only;
        # one costs about 1 s, so take five
        run += ["--workdir", str(workdir)]
        plan = ["setup", "run", "setup", "setup", "run", "setup", "setup"]
    else:
        plan = ["run", "setup", "run"]
    setups, results = [], []
    for step in plan:
        if step == "setup":
            setups.append(runner.spawn("--mode", "setup")[0])
            continue
        setup, res = runner.spawn(*run, "--worker", str(len(results)))
        results.append(res)
        if wl.name != "cli-cold":
            setups.append(setup)
    passes = [lat for res in results for lat in res["latencies"]]
    # every pass repeats the same tasks
    latency = [typical(repeats) for repeats in zip(*passes)]
    value, beyond = tail(latency, wl.tail_q)
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": sum(latency),
        "task_p50_s": statistics.median(latency),
        "task_tail_s": value,
        "peak_rss_mb": max(res["peak_rss_mb"] for res in results),
    }
    detail = {"setup_samples_s": setups, "passes": len(passes),
              "tasks_per_pass": len(latency), "tail_percentile": wl.tail_q,
              "tasks_beyond_tail": beyond}
    return metrics, {k: END_TO_END[k] for k in metrics}, results, detail


def traced(runner: Runner, wl, seed: int, workdir: Path) -> tuple:
    fixed = ["--mode", "fixed", "--passes", str(wl.trace_passes)]
    if wl.name == "cli-cold":
        fixed += ["--workdir", str(workdir)]
    _, plain = runner.spawn(*fixed)
    span_file = OUT / f"spans-{wl.name}-{seed}.json"
    _, rec = runner.spawn(*fixed, "--trace", str(span_file))
    metrics = spans.layer_metrics(rec["layers"], rec["wall_s"],
                                  plain["wall_s"])
    detail = {"passes": wl.trace_passes, "wall_plain_s": plain["wall_s"],
              "wall_traced_s": rec["wall_s"], "spans": rec["layers"]["spans"],
              "span_file": str(span_file.relative_to(runner.root))}
    return metrics, spans.LAYER_UNITS, [plain, rec], detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="twistnorm benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "twistnorm" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/twistnorm",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, wl.name, args.seed)
    workdir = OUT / f"cli-work-{os.getpid()}"
    try:
        if args.trace:
            metrics, units, results, detail = traced(runner, wl, args.seed,
                                                     workdir)
        else:
            metrics, units, results, detail = untraced(runner, wl,
                                                       args.seconds, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    key = f"{source_digest(src, HERE)[:16]}-{wl.name}-{args.seed}"
    problems = check_digests(results, key)
    failures = [f for r in results for f in r["failures"]] + problems
    detail.update(workload=wl.name, seed=args.seed,
                  failed_ratio=failed / attempted,
                  digest=results[0]["digests"][0],
                  inputs=results[0]["properties"],
                  environment=environment(root))
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
