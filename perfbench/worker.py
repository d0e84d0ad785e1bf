"""One benchmark process: set up a workload, then run its passes.

    python perfbench/worker.py --workload W --seed N --mode MODE [options]

Modes:
  setup  set up, print READY and exit; the parent times spawn to READY
  run    set up, then repeat the pass until --seconds have passed
  fixed  set up, then run exactly --passes passes; with --trace FILE the
         package is wrapped first and the spans are written to FILE

``run`` and ``fixed`` end with one line ``RESULT {json}``.  On cli-cold
this process only prepares files and references: every command is a
fresh interpreter, timed from spawn to exit.
"""

from __future__ import annotations

import time

clock = time.perf_counter
T_START = clock()          # before numpy or twistnorm is imported

import argparse            # noqa: E402
import hashlib             # noqa: E402
import importlib           # noqa: E402
import json                # noqa: E402
import os                  # noqa: E402
import resource            # noqa: E402
import subprocess          # noqa: E402
import sys                 # noqa: E402
import traceback           # noqa: E402
from pathlib import Path   # noqa: E402

HERE = Path(__file__).resolve().parent
CLI_MAIN = ("import sys; from twistnorm.cli import main; "
            "sys.exit(main(sys.argv[1:]))")


def ready() -> None:
    print("READY", flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest_values(values) -> bytes:
    """Full-precision bytes of a task's results."""
    import numpy as np     # already loaded by the workload
    if isinstance(values, np.ndarray):
        return np.ascontiguousarray(values, dtype=float).tobytes()

    def plain(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer, np.bool_)):
            return obj.item()
        raise TypeError(f"cannot digest {type(obj).__name__}")

    return json.dumps(values, sort_keys=True, default=plain).encode()


def pass_digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(hashlib.sha256(chunk).digest())
    return h.hexdigest()


CPUS = sorted(os.sched_getaffinity(0))
MIN_PASSES = 2             # per run worker, whatever the deadline


def next_cpu(pass_index: int) -> None:
    """Run the next pass on the next CPU, cycling through all of them.

    On a shared host each CPU has slow spells of seconds to tens of
    seconds, mostly at different times, so a task's repeats are taken
    over every CPU rather than over the one the scheduler kept.  Child
    processes inherit the CPU.
    """
    try:
        os.sched_setaffinity(0, {CPUS[pass_index % len(CPUS)]})
    except OSError:
        pass


class Passes:
    """Per-pass task latencies and digests, and the checked outcomes."""

    def __init__(self):
        self.latencies = []    # one list of task latencies per pass
        self.digests = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, label: str, why) -> None:
        """Count one checked outcome; why is None when it passed."""
        self.attempted += 1
        if why is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{label}: {why}")

    def add_pass(self, latencies: list, chunks: list) -> None:
        self.latencies.append(latencies)
        self.digests.append(pass_digest(chunks))

    def done(self, passes=None, deadline=None) -> bool:
        n = len(self.latencies)
        if passes is not None:
            return n >= passes
        return n >= MIN_PASSES and clock() >= deadline

    def result(self, **extra) -> dict:
        return {"latencies": self.latencies, "digests": self.digests,
                "attempted": self.attempted, "failed": self.failed,
                "failures": self.failures, **extra}


def run_passes(args, tasks, state, log: Passes) -> None:
    """Run passes for --seconds (mode run) or --passes times (mode fixed)."""
    passes = args.passes if args.mode == "fixed" else None
    deadline = clock() + args.seconds
    while not log.done(passes, deadline):
        next_cpu(args.worker + len(log.latencies))
        chunks = []
        latencies = []
        for task in tasks:
            t0 = clock()
            try:
                res = task.call(state)
            except Exception:           # a raise is a failed task, not a crash
                latencies.append(clock() - t0)
                why = "raised " + traceback.format_exc(limit=3)
                chunks.append(why.encode())
            else:
                latencies.append(clock() - t0)
                try:
                    values, why = task.check(res)
                    chunks.append(digest_values(values))
                except Exception:
                    why = "check raised " + traceback.format_exc(limit=3)
                    chunks.append(why.encode())
            log.record(task.label, why)
        log.add_pass(latencies, chunks)


def library_workload(args) -> dict | None:
    rec = None
    if args.trace:
        import spans
        rec = spans.Recorder()
        tn = rec.call("cli.import", "cli.import_s", importlib.import_module,
                      None, ("twistnorm",), {})
        spans.install(rec)
    else:
        tn = importlib.import_module("twistnorm")
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    state = wl.setup(tn, inputs)
    ready()
    if args.mode == "setup":
        return None
    log = Passes()
    for why in wl.setup_failures(state):
        log.record("setup", why)
    tasks = wl.tasks(tn, inputs)
    run_passes(args, tasks, state, log)
    out = log.result(peak_rss_mb=peak_rss_mb(), wall_s=clock() - T_START,
                     properties=wl.properties(inputs))
    if rec is not None:
        out["layers"] = spans.summary(rec)
        rec.dump(args.trace)
    return out


def cli_tasks(args, wl, inputs, work: Path, refs: list, seen: dict) -> list:
    """One Task per command: the timed call spawns it and waits for it.

    The check reads the report and, when tracing, the command's span
    summary; ``seen`` collects the peak RSS and those summaries.
    """
    from workloads import Task

    def call(cmd):
        def spawn(_state):
            with open(work / "stderr.txt", "wb") as err:
                proc = subprocess.Popen(cmd, cwd=work, stderr=err,
                                        stdout=subprocess.DEVNULL)
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        return spawn

    def check(i, report, span_file):
        def checked(res):
            code, usage = res
            seen["rss"] = max(seen["rss"], usage.ru_maxrss / 1024.0)
            body = None
            if report.exists():
                body = json.loads(report.read_text())["body"]
                report.unlink()
            values, why = wl.check(i, code, body, refs[i])
            if why is not None and code != 0:
                why += ": " + (work / "stderr.txt").read_text()[-400:]
            if span_file is not None:
                with open(span_file) as fh:
                    seen["layers"].append(json.load(fh)["summary"])
            return values, why
        return checked

    tasks = []
    for i, argv in enumerate(inputs["commands"]):
        report = work / f"report{i}.json"
        span_file = None
        if args.trace:
            span_file = f"{args.trace}.{i}"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), span_file]
        else:
            cmd = [sys.executable, "-c", CLI_MAIN]
        cmd += argv + ["--out", report.name]
        tasks.append(Task(" ".join(argv[:2]), call(cmd),
                          check(i, report, span_file)))
    return tasks


def cli_workload(args) -> dict | None:
    if args.mode == "setup":
        importlib.import_module("twistnorm.cli")
        ready()
        return None
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    # the run's second worker reuses the first one's library values
    cached = work / "references.json"
    if cached.is_file():
        refs = json.loads(cached.read_text())
    else:
        refs = wl.references(importlib.import_module("twistnorm"), inputs)
        cached.write_text(json.dumps(refs))
    for name, doc in inputs["files"].items():
        (work / name).write_text(json.dumps(doc))
    ready()
    log = Passes()
    seen = {"rss": 0.0, "layers": []}
    run_passes(args, cli_tasks(args, wl, inputs, work, refs, seen), None, log)
    out = log.result(peak_rss_mb=seen["rss"],
                     wall_s=sum(sum(lat) for lat in log.latencies),
                     properties=wl.properties(inputs))
    if args.trace:
        import spans
        out["layers"] = spans.merge(seen["layers"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "fixed"], required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--worker", type=int, default=0,
                    help="index of this run worker; its first pass runs on "
                    "CPU number WORKER (mod nproc)")
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--workdir", default=None, help="cli-cold file directory")
    args = ap.parse_args(argv)
    if args.workload == "cli-cold":
        out = cli_workload(args)
    else:
        out = library_workload(args)
    if out is not None:
        print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
