"""One workload in a fresh process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the package sources.
It imports the package, generates the inputs from the seed, prints
``READY <cpu seconds so far>`` (set-up ends there), and, unless
``--setup-only`` is given, runs timed passes until ``--seconds`` have
passed.  The outputs of each pass are checked after its clocks stop.
The last stdout line is one JSON record for the launcher.

Each pass is timed twice: wall time, and CPU time of this process.  A
pass whose checks fail is charged the whole measuring window on top of
its own time, on both clocks, so a broken run never reads as faster.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter, process_time

import numpy
import scipy

from workloads import WORKLOADS


class Passes:
    """Per-pass times, stage times and gate counts of one run."""

    def __init__(self, window_s: float):
        self.window_s = window_s
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.stages: dict[str, list[float]] = {}
        self.attempted = self.failed = 0

    def add(self, out: dict, cpu_s: float, attempted: int, failed: int) -> None:
        wall = out["wall_s"]
        if failed:
            wall, cpu_s = wall + self.window_s, cpu_s + self.window_s
        self.walls.append(wall)
        self.cpus.append(cpu_s)
        self.attempted += attempted
        self.failed += failed
        for name, value in out["stages"].items():
            self.stages.setdefault(name, []).append(value)

    def record(self) -> dict:
        return {"walls": self.walls, "cpus": self.cpus,
                "attempted": self.attempted, "failed": self.failed,
                "stages": {k: statistics.median(v) for k, v in self.stages.items()}}


def _timed_pass(workload) -> tuple[dict, float]:
    gc.collect()  # every pass starts from a swept heap
    cpu0 = process_time()
    out = workload.run_pass()
    return out, process_time() - cpu0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--fault", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.workdir, args.fault)
        print(f"READY {process_time()!r}", flush=True)
        if args.setup_only:
            return 0
        record = _trace(workload, args) if args.trace else _measure(workload, args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    record.update({
        "inputs_digest": workload.inputs_digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    })
    print(json.dumps(record), flush=True)
    return 0


def _measure(workload, args) -> dict:
    passes = Passes(args.seconds)
    start = perf_counter()
    while True:
        out, cpu_s = _timed_pass(workload)
        passes.add(out, cpu_s, *workload.check(out))
        # drop this pass's objects before the next one allocates, so the
        # peak RSS does not depend on how many passes fit in the window
        del out
        if perf_counter() - start >= args.seconds:
            return passes.record()


def _trace(workload, args) -> dict:
    """Alternate untraced and traced passes; per-layer medians per pass."""
    from spans import Tracer, metric_units

    tracer = Tracer()
    untraced, traced = Passes(args.seconds), []
    start = perf_counter()
    while True:
        out, cpu_s = _timed_pass(workload)
        untraced.add(out, cpu_s, *workload.check(out))
        del out
        tracer.install()
        try:
            tracer.begin_pass()
            out = workload.run_pass()
            traced.append(tracer.end_pass({"cli.output_bytes": out.get("output_bytes", 0)}))
        finally:
            tracer.uninstall()
        attempted, failed = workload.check(out)
        untraced.attempted += attempted
        untraced.failed += failed
        del out
        if perf_counter() - start >= args.seconds:
            break
    if args.spans_out:
        tracer.dump(args.spans_out)
    medians = {name: statistics.median(f[name] for f in traced) for name in traced[0]}
    medians["bench.untraced_wall_s"] = statistics.median(untraced.walls)
    medians["bench.overhead_s"] = medians["bench.wall_s"] - medians["bench.untraced_wall_s"]
    record = untraced.record()
    record["per_layer"] = {name: (medians[name], unit)
                           for name, unit in metric_units().items()}
    record["traced_passes"] = len(traced)
    return record


if __name__ == "__main__":
    sys.exit(main())
