#!/usr/bin/env python3
"""Benchmark of regtriang, driven through its public API from outside.

    python3 perfbench/run.py --workload conjecture --seed 1 --seconds 20 --trace 0

Workloads: conjecture, hexagon-prefix, kenergy (see workloads.py and
README.md). With --trace 0 the run measures set-up time in fresh
interpreters, spread over the run, and repeats untraced passes of the
workload's fixed work until --seconds have passed; it prints the
end-to-end metrics. With --trace 1 it makes two untraced passes, keeps the
second as the reference, then makes traced passes, and
prints the per-layer metrics and the tracing overhead. Either way the
answers are checked after the timed region, and the last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import collections
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_FIRST = 3  # set-up samples before the first pass; one more before each
READY = "perfbench-ready"
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import regtriang from this checkout's source tree, or exit 1."""
    sys.path.insert(0, SRC)
    try:
        import regtriang
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import regtriang from {SRC}: {exc}")
    if not os.path.abspath(regtriang.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: regtriang imported from {regtriang.__file__}, not {SRC}")


def setup_seconds(workload, seed):
    """Wall time from spawning an interpreter to the end of its set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line != READY or proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up run failed (exit {proc.returncode})")
    return elapsed


class Passes:
    """Whole passes of a workload, timed pass by pass and operation by operation."""

    def __init__(self):
        self.walls = []
        self.op_seconds = collections.defaultdict(list)
        self.answers = []
        self.attempted = 0
        self.failed = 0
        self.first_rss_kb = None

    def run(self, wl, seconds, before_pass=lambda: None):
        """Run at least one pass, and more while the next one, at the median
        pass time so far, still ends within `seconds`."""
        from workloads import Ops

        walls = []
        begin = time.perf_counter()
        while not walls or (
            time.perf_counter() - begin + statistics.median(walls) <= seconds
        ):
            before_pass()
            gc.collect()
            ops = Ops()
            start = time.perf_counter()
            answer = wl.run_pass(ops)
            walls.append(time.perf_counter() - start)
            if self.first_rss_kb is None:
                self.first_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.attempted += ops.attempted
            self.failed += ops.failed
            for key, took in ops.seconds.items():
                self.op_seconds[key].append(took)
            self.answers.append(answer)
        self.walls += walls
        return walls

    def fastest_pass(self):
        """Sum over the operations of a pass of each one's least time."""
        return sum(min(s) for s in self.op_seconds.values())


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "_per_accepted", "_per_solve")):
        return "ratio"
    if name.endswith(".base_enumerations"):
        return "1/check"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def end_to_end(args, wl):
    # Set-up is sampled across the whole run, not in one burst at its start,
    # so that one slow spell of the machine does not set the median.
    setup = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_FIRST)]
    passes = Passes()
    passes.run(wl, args.seconds,
               before_pass=lambda: setup.append(setup_seconds(args.workload, args.seed)))
    # This machine's processor speed swings by up to 70% for tens of
    # seconds at a time, so an operation's least time over the run's passes
    # is the figure that repeats between runs; a median follows the swings.
    # A command-line run makes one pass. Every further pass in this process
    # keeps engines the package never frees, so the first pass sets the peak.
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": passes.fastest_pass(),
        "peak_rss_mb": passes.first_rss_kb / 1024,
    }
    return passes, metrics


def per_layer(args, wl):
    import layertrace
    import workloads
    from regtriang import triangulation

    passes = Passes()
    # The first pass of a process pays one-time costs, so the untraced
    # reference is the second of two untraced passes.
    untraced = passes.run(wl, 0) + passes.run(wl, 0)
    reference = untraced[-1]
    tracer = layertrace.Tracer()
    layertrace.install(tracer, [workloads])
    known = {id(e) for e in triangulation._ENGINES.values()}
    cpu0 = os.times()
    tracer.active = True
    walls = passes.run(wl, args.seconds - sum(untraced))
    tracer.active = False
    cpu1 = os.times()
    fresh = [e for e in triangulation._ENGINES.values() if id(e) not in known]
    n = len(walls)
    metrics = layertrace.layer_metrics(tracer, n)
    metrics["triangulation.engine_cache_entries"] = layertrace.engine_cache_entries(fresh) / n
    metrics["process.cpu_s"] = (cpu1.user - cpu0.user + cpu1.system - cpu0.system) / n
    metrics["process.child_cpu_s"] = (
        cpu1.children_user - cpu0.children_user + cpu1.children_system - cpu0.children_system
    ) / n
    traced = statistics.median(walls)
    metrics["trace.untraced_wall_s"] = reference
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.overhead_pct"] = 100 * (traced - reference) / reference
    metrics["trace.spans"] = len(tracer.spans) / n
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.tsv"))
    return passes, dict(sorted(metrics.items()))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("conjecture", "hexagon-prefix", "kenergy"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload's inputs, print a ready line and exit")
    args = ap.parse_args(argv)

    import_program()
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        if args.setup_only:
            print(READY, flush=True)
            return 0
        measure = per_layer if args.trace else end_to_end
        passes, metrics = measure(args, wl)
        problems = wl.check(passes.answers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    walls = " ".join(f"{w:.3f}" for w in passes.walls)
    print(f"perfbench: {args.workload} pass seconds: {walls}", file=sys.stderr)
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {k: {"value": v, "unit": unit(k) if args.trace else E2E_UNITS[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
