"""The four benchmark workloads.

Each workload is a class with three steps:

* ``__init__(seed, workdir, fault)`` generates the inputs from the seed.
  This is part of set-up, which ``setup_s`` measures.
* ``run_pass()`` does one timed pass through the package and returns the
  raw outputs plus named stage times.  Only this step is timed.
* ``check(out)`` compares the outputs with exact expectations and returns
  ``(attempted, failed)``: one operation per gate instance or CLI call.

The package is reached only through its public module attributes at call
time (``cli.main``, ``boxspace.build_tower`` ...), so the tracer's
wrappers, installed on those attributes, see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction
from time import perf_counter

import numpy as np

from homcover import boxspace, cli, cover, embed, graph, metrics

#: Sources per tower pass: one 32-row chunk of ``compression_profile``.
TOWER_SOURCES = 32
TOWER_SIZES = [9, 531441]

EXPORT_M = 4
EXPORT_VERTICES = 10 * 4 ** 6  # Petersen base, r = 6
EXPORT_PAIRS = 20

TREEAVG_SOURCES = 32
TREEAVG_PSI_PAIRS = 5
TREEAVG_PAIRS = 20
TREEAVG_SAMPLE = 50
TREEAVG_VERTICES = 10 * 2 ** 6  # Petersen base, m = 2


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _cli(argv: list[str]) -> int:
    """Call the CLI entry point, keeping its summary off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Suite:
    """``homcover suite run`` with its defaults, as users run it."""

    def __init__(self, seed: int, workdir: str, fault: str | None = None):
        self.argv = ["suite", "run", "--seed", str(seed),
                     "--out", os.path.join(workdir, "report.json")]
        if fault:
            self.argv += ["--fault", fault]
        self.out_path = self.argv[5]
        self.inputs_digest = _digest(self.argv[:4] + self.argv[6:])
        self.first_report: bytes | None = None

    def run_pass(self):
        t0 = perf_counter()
        rc = _cli(self.argv)
        t1 = perf_counter()
        return {"rc": rc, "wall_s": t1 - t0, "stages": {},
                "output_bytes": os.path.getsize(self.out_path)}

    def check(self, out) -> tuple[int, int]:
        with open(self.out_path, "rb") as fh:
            report = fh.read()
        gates = [out["rc"] == 0,
                 json.loads(report)["overall"] == "pass"]
        if self.first_report is None:
            self.first_report = report
        else:
            gates.append(report == self.first_report)
        return len(gates), gates.count(False)


class Tower:
    """Criterion 7: a two-level girth tower and a d_Q compression profile."""

    def __init__(self, seed: int, workdir: str, fault: str | None = None):
        n = TOWER_SIZES[-1]
        self.sources = sorted(random.Random(seed).sample(range(n), TOWER_SOURCES))
        self.inputs_digest = _digest(self.sources)
        self.first_rows = None

    def run_pass(self):
        t0 = perf_counter()
        tower = boxspace.build_tower(2, 3, 2)
        t1 = perf_counter()
        prof = metrics.compression_profile(tower.levels[-1].cover,
                                           self.sources, "dq")
        t2 = perf_counter()
        return {"tower": tower, "profile": prof, "wall_s": t2 - t0,
                "stages": {"tower_build_s": t1 - t0, "profile_s": t2 - t1}}

    def check(self, out) -> tuple[int, int]:
        levels = out["tower"].levels
        rows = out["profile"].rows
        girths = [lvl.girth_value for lvl in levels]
        n = levels[-1].graph.vertex_count
        gates = [
            [lvl.graph.vertex_count for lvl in levels] == TOWER_SIZES,
            all(a < b for a, b in zip(girths, girths[1:])),
            sum(r.pair_count for r in rows) == len(self.sources) * n,
        ]
        # below the girth of the level below, d_Q equals d exactly
        gates += [r.min_val == r.max_val == r.t for r in rows if r.t < girths[0]]
        if self.first_rows is None:
            self.first_rows = rows
        else:
            gates.append(rows == self.first_rows)
        return len(gates), gates.count(False)


class Export:
    """A CLI chain: ``cover build`` then ``embed export`` as CSV and JSON."""

    def __init__(self, seed: int, workdir: str, fault: str | None = None):
        rng = random.Random(seed)
        self.pairs = [tuple(rng.sample(range(EXPORT_VERTICES), 2))
                      for _ in range(EXPORT_PAIRS)]
        self.graph_path = os.path.join(workdir, "petersen.json")
        with open(self.graph_path, "w", encoding="utf-8") as fh:
            json.dump(graph.graph_document(graph.petersen_graph()), fh)
        self.cover_path = os.path.join(workdir, "cover.json")
        self.out = {fmt: os.path.join(workdir, f"embedding.{fmt}")
                    for fmt in ("csv", "json")}
        self.inputs_digest = _digest(self.pairs)

    def run_pass(self):
        rcs = []
        t0 = perf_counter()
        rcs.append(_cli(["cover", "build", "--graph", self.graph_path,
                         "--m", str(EXPORT_M), "--out", self.cover_path]))
        t1 = perf_counter()
        for fmt, path in self.out.items():
            rcs.append(_cli(["embed", "export", "--cover", self.cover_path,
                             "--format", fmt, "--out", path]))
        t2 = perf_counter()
        written = [self.cover_path, *self.out.values()]
        return {"rcs": rcs, "wall_s": t2 - t0,
                "stages": {"export_vertices_per_s":
                           len(self.out) * EXPORT_VERTICES / (t2 - t1)},
                "output_bytes": sum(os.path.getsize(p) for p in written)}

    def _parse_csv(self) -> dict[int, dict[int, int]]:
        vectors = {}
        with open(self.out["csv"], encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                x, *entries = line.rstrip("\n").split(",")
                vectors[int(x)] = dict(tuple(map(int, e.split(":")))
                                       for e in entries)
        return vectors

    def _parse_json(self) -> dict[int, dict[int, int]]:
        with open(self.out["json"], encoding="utf-8") as fh:
            doc = json.load(fh)
        return {int(x): dict(map(tuple, entries))
                for x, entries in doc["vectors"].items()}

    def check(self, out) -> tuple[int, int]:
        reference = cover.build_zm_cover(graph.petersen_graph(), EXPORT_M)
        gates = [rc == 0 for rc in out["rcs"]]
        for vectors in (self._parse_csv(), self._parse_json()):
            gates.append(sorted(vectors) == list(range(EXPORT_VERTICES)))
            for x, y in self.pairs:
                a, b = vectors.get(x, {}), vectors.get(y, {})
                doubled = sum(abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys())
                gates.append(Fraction(doubled, 2) == metrics.d_q(reference, x, y))
        return len(gates), gates.count(False)


class TreeAvg:
    """The tree-averaged embedding and sampled tree averages on a small cover."""

    def __init__(self, seed: int, workdir: str, fault: str | None = None):
        rng = random.Random(seed)
        n = TREEAVG_VERTICES
        self.sources = sorted(rng.sample(range(n), TREEAVG_SOURCES))
        self.psi_pairs = [tuple(rng.sample(range(n), 2))
                          for _ in range(TREEAVG_PSI_PAIRS)]
        self.pairs = [(*rng.sample(range(n), 2), rng.randrange(1 << 31))
                      for _ in range(TREEAVG_PAIRS)]
        self.inputs_digest = _digest((self.sources, self.psi_pairs, self.pairs))
        self.first_averages = None

    def run_pass(self):
        t0 = perf_counter()
        c = cover.build_zm_cover(graph.petersen_graph(), 2)
        psi = embed.PsiEmbedding(c)
        mat = psi.matrix()
        hamming = [(mat != mat[s]).sum(axis=1, dtype=np.int64) for s in self.sources]
        dq_rows = [metrics.d_q_from(c, s) for s in self.sources]
        psi_dist = [(psi.distance(x, y), metrics.d_q(c, x, y))
                    for x, y in self.psi_pairs]
        averages = [metrics.d_q_tree_average(c, x, y, sample=TREEAVG_SAMPLE, seed=s)
                    for x, y, s in self.pairs]
        t1 = perf_counter()
        return {"n_avoid": psi.n_avoid, "vertices": c.graph.vertex_count,
                "hamming": hamming, "dq_rows": dq_rows, "psi_dist": psi_dist,
                "averages": averages, "wall_s": t1 - t0, "stages": {}}

    def check(self, out) -> tuple[int, int]:
        n_avoid = out["n_avoid"]
        gates = [out["vertices"] == TREEAVG_VERTICES]
        gates += [np.array_equal(h, 2 * n_avoid * dq)
                  for h, dq in zip(out["hamming"], out["dq_rows"])]
        gates += [dist == Fraction(dq) for dist, dq in out["psi_dist"]]
        averages = out["averages"]
        gates += [a.sampled and a.trees_used == TREEAVG_SAMPLE for a in averages]
        if self.first_averages is None:
            self.first_averages = averages
        else:
            gates.append(averages == self.first_averages)
        return len(gates), gates.count(False)


WORKLOADS = {"suite": Suite, "tower": Tower, "export": Export, "treeavg": TreeAvg}
