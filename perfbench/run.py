"""homcover benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The launcher uses only the
standard library.  It byte-compiles ``src/``, then times set-up in
``SETUP_PROBES`` fresh interpreters (start, imports and input generation,
up to the first timed call), then runs the workload in one more fresh
interpreter (``worker.py``) for ``--seconds`` seconds.

The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones (``cpu_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones from
``spans.py``.  The line before it is a detail record: the machine, the
commit, every pass's wall and CPU time with median, tail percentile and
sample count, the workload-specific figures and ``failed_frac``.  See
``NOTES.md`` for why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("suite", "tower", "export", "treeavg")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("HOMCOVER_OUT", None)  # outputs go to absolute paths in the checkout
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # the workloads are single-threaded
    return env


def _worker_cmd(args, workdir: Path, *extra: str) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    if args.fault:
        cmd += ["--fault", args.fault]
    return cmd


def _start(cmd: list[str]):
    """Start a worker; return (process, set-up wall seconds, set-up CPU seconds).

    Set-up ends when the worker prints ``READY <cpu>``; ``cpu`` is the
    worker's own CPU time from interpreter start to that point.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(),
                            cwd=ROOT)
    line = proc.stdout.readline().split()
    wall = perf_counter() - t0
    if len(line) != 2 or line[0] != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed during set-up")
    return proc, wall, float(line[1])


def _finish(proc) -> str:
    """Wait for a started worker; return its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def _tail(walls: list[float]) -> dict:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    ordered = sorted(walls)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        k = -(-p * n // 100)  # samples at or below the percentile
        if n - k >= 10:
            return {"p": p, "value": ordered[k - 1]}
    return {"p": None, "value": None, "note": f"fewer than 11 passes ({n})"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc() -> str:
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", default=None,
                    help="suite only: poison the named check (self-test)")
    ap.add_argument("--spans-out", default=None,
                    help="with --trace 1: write the last traced pass's spans here")
    args = ap.parse_args(argv)
    if args.fault and args.workload != "suite":
        ap.error("--fault applies to the suite workload only")
    if args.spans_out and not args.trace:
        ap.error("--spans-out needs --trace 1")

    if not (SRC / "homcover" / "__init__.py").is_file():
        return _fail(f"no package sources at {SRC}; run from a source checkout")
    if not compileall.compile_dir(str(SRC), quiet=1):
        return _fail("byte-compiling the package failed")

    work = HERE / "_work"
    setup_wall, setup_cpu = [], []
    try:
        if not args.trace:
            for i in range(SETUP_PROBES):
                proc, wall, cpu = _start(_worker_cmd(args, work / f"setup{i}", "--setup-only"))
                _finish(proc)
                setup_wall.append(wall)
                setup_cpu.append(cpu)
        extra = ["--spans-out", str(Path(args.spans_out).resolve())] if args.spans_out else []
        proc, _wall, _cpu = _start(_worker_cmd(args, work / "run", *extra))
        record = json.loads(_finish(proc).strip().splitlines()[-1])
    except (RuntimeError, OSError, ValueError) as exc:
        return _fail(str(exc))

    walls, cpus = record["walls"], record["cpus"]
    attempted, failed = record["attempted"], record["failed"]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fault": args.fault,
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
                    "llc": _llc(), **record["versions"]},
        "commit": _git_commit(),
        "inputs_digest": record["inputs_digest"],
        "passes": len(walls),
        "wall_s": {"median": statistics.median(walls), "tail": _tail(walls),
                   "n": len(walls), "passes": walls},
        "cpu_s": {"median": statistics.median(cpus), "tail": _tail(cpus),
                  "n": len(cpus), "passes": cpus},
        "setup_s": {"cpu": setup_cpu, "wall": setup_wall},
        "stages": record["stages"],
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in record["per_layer"].items()}
        detail["traced_passes"] = record["traced_passes"]
    else:
        metrics = {
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_cpu), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
