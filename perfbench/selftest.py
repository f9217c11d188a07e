"""Self-test of the benchmark itself (about three minutes).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that:

1. ``BENCHMARK.json`` keeps to its schema and lists exactly the per-layer
   metrics that ``spans.py`` produces;
2. a poisoned run (``suite`` with ``--fault compare``) reports failed
   operations and does not read as faster than the clean run;
3. a second seed changes every workload's generated inputs and leaves
   every gate passing;
4. in a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
   the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result(*args: str, seconds: str = "1") -> tuple[dict, dict]:
    code, lines = bench(*args, "--seconds", seconds)
    assert code == 0, f"run.py {args} exited {code}"
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def check_schema() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from spans import metric_units

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in doc["workloads"])
    metrics = doc["end_to_end"] + doc["per_layer"]
    names = [m["name"] for m in doc["workloads"] + metrics]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in doc["end_to_end"])} in doc["end_to_end"]
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == metric_units()
    assert 1 <= doc["run_seconds"] <= 60
    print("schema: ok")


def check_poisoned() -> None:
    # a window longer than one pass, so the failure charge is visible
    # above the machine's run-to-run noise
    clean, _ = result("--workload", "suite", "--seed", str(SEEDS[0]), seconds="15")
    bad, detail = result("--workload", "suite", "--seed", str(SEEDS[0]),
                         "--fault", "compare", seconds="15")
    assert clean["correct"] and clean["failed"] == 0
    assert not bad["correct"] and bad["failed"] > 0
    assert detail["failed_frac"]["value"] > 0
    assert bad["metrics"]["cpu_s"]["value"] >= clean["metrics"]["cpu_s"]["value"]
    print(f"poisoned: failed {bad['failed']}/{bad['attempted']}, "
          f"cpu_s {bad['metrics']['cpu_s']['value']:.3f} >= "
          f"{clean['metrics']['cpu_s']['value']:.3f}: ok")


def check_seeds() -> None:
    for workload in ("suite", "tower", "export", "treeavg"):
        digests = []
        for seed in SEEDS:
            res, detail = result("--workload", workload, "--seed", str(seed))
            assert res["correct"] and res["failed"] == 0, (workload, seed)
            digests.append(detail["inputs_digest"])
        assert digests[0] != digests[1], workload
        print(f"seeds: {workload} inputs {digests[0]} != {digests[1]}, gates pass: ok")


def check_bare_directory() -> None:
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines = bench("--workload", "suite", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and not any(line.startswith('{"correct"') for line in lines)
    print(f"bare directory: exit {code}, no result: ok")


if __name__ == "__main__":
    check_schema()
    check_bare_directory()
    check_poisoned()
    check_seeds()
    print("selftest passed")
