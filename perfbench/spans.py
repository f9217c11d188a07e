"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces each traced function at every module
attribute of ``homcover`` that is bound to it (modules bind names at
import, so ``homcover.harness.girth`` needs its own wrapper) and each
traced method on its class.  ``uninstall()`` puts the originals back.

Each wrapped call records a span ``[name, parent, start, end]`` in memory;
a generator records one span per resume.  Spans of one pass share the
pass's root span.  ``self_s`` of a layer is its span time minus the time
its child spans cover, derived from the spans after the pass.  Counts
(rows, bytes, builds, ...) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

from homcover import cover, embed, graph

# (span name, owner, attribute).  owner is a module name, searched across
# every homcover module for aliases, or a class whose method is wrapped.
TRACED = [
    ("graph.girth", "homcover.graph", "girth"),
    ("graph.cycle_bound_from", "homcover.graph", "cycle_bound_from"),
    ("graph.bfs_distance_matrix", "homcover.graph", "bfs_distance_matrix"),
    ("graph.is_two_edge_connected", "homcover.graph", "is_two_edge_connected"),
    ("graph.arcs", graph.MultiGraph, "arcs"),
    ("graph.spmatrix", graph.MultiGraph, "spmatrix"),
    ("boxspace.build_tower", "homcover.boxspace", "build_tower"),
    ("boxspace.girth_vertex_transitive", "homcover.boxspace", "girth_vertex_transitive"),
    ("cover.build_zm_cover", "homcover.cover", "build_zm_cover"),
    ("cover.base_profiles", cover.CoverGraph, "base_profiles"),
    ("cover.cloud_map", "homcover.cover", "cloud_map"),
    ("cover.lift_path", "homcover.cover", "lift_path"),
    ("metrics.d_q_from", "homcover.metrics", "d_q_from"),
    ("metrics.compression_profile", "homcover.metrics", "compression_profile"),
    ("metrics.verify_compare", "homcover.metrics", "verify_compare"),
    ("metrics.d_q_tree_average", "homcover.metrics", "d_q_tree_average"),
    ("trees.count_spanning_trees", "homcover.trees", "count_spanning_trees"),
    ("trees.enumerate_spanning_trees", "homcover.trees", "enumerate_spanning_trees"),
    ("trees.sample_uniform_tree", "homcover.trees", "sample_uniform_tree"),
    ("embed.embed_point_l1", "homcover.embed", "embed_point_l1"),
    ("embed.binary_embed_matrix", "homcover.embed", "binary_embed_matrix"),
    ("embed.PsiEmbedding", embed.PsiEmbedding, "__init__"),
    ("embed.PsiEmbedding.distance", embed.PsiEmbedding, "distance"),
    ("embed.PsiEmbedding.matrix", embed.PsiEmbedding, "matrix"),
    ("harness.run_suite", "homcover.harness", "run_suite"),
    *[(f"harness.check_{name}", "homcover.harness", f"check_{name}")
      for name in ("compare", "conglifts", "isometry", "treeavg", "l2",
                   "girth_growth", "ne_constant")],
    ("cli.main", "homcover.cli", "main"),
    ("cli.load_cover", "homcover.cli", "load_cover"),
]

ROOT = "bench.pass"

#: Counters beyond ``self_s`` reported per span name.
COUNTED = {
    "graph.girth": ["calls"],
    "graph.cycle_bound_from": ["calls"],
    "graph.bfs_distance_matrix": ["calls", "rows", "bytes_computed"],
    "graph.arcs": ["calls", "builds"],
    "cover.build_zm_cover": ["calls", "vertices"],
    "cover.base_profiles": ["calls", "builds", "bytes"],
    "cover.cloud_map": ["calls"],
    "cover.lift_path": ["calls"],
    "metrics.d_q_from": ["calls"],
    "metrics.verify_compare": ["pairs"],
    "metrics.d_q_tree_average": ["calls"],
    "trees.count_spanning_trees": ["calls"],
    "trees.enumerate_spanning_trees": ["trees"],
    "trees.sample_uniform_tree": ["calls"],
    "embed.embed_point_l1": ["calls"],
    "embed.binary_embed_matrix": ["calls", "bytes"],
    "embed.PsiEmbedding": ["trees"],
    "embed.PsiEmbedding.distance": ["calls"],
    "cli.main": ["calls"],
}

#: Waste ratios: name -> (numerator counter, denominator counter).
RATIOS = {
    # BFS roots the generic girth loop takes per fiber of a cover; one
    # root per fiber suffices under the deck group.
    "graph.girth.roots_per_fiber": ("girth.cover_roots", "girth.cover_fibers"),
    # BFS rows per distinct fiber among the sources; rows of one fiber are
    # index permutations of each other.
    "graph.bfs_distance_matrix.rows_per_fiber": ("bfs.cover_rows", "bfs.cover_fibers"),
    "cover.base_profiles.builds_per_call": ("cover.base_profiles.builds",
                                            "cover.base_profiles.calls"),
}

BENCH_METRICS = {
    "bench.wall_s": "s",            # median traced pass
    "bench.untraced_wall_s": "s",   # median untraced pass, same run
    "bench.overhead_s": "s",        # traced minus untraced
    "bench.layers_self_s": "s",     # sum of every traced layer's self_s
    "bench.glue_s": "s",            # root self time: benchmark code outside every layer
    "cli.output_bytes": "B",
}

_UNITS = {"calls": "count", "rows": "count", "builds": "count", "vertices": "count",
          "pairs": "count", "trees": "count", "bytes": "B", "bytes_computed": "B"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _owner, _attr in TRACED:
        for quantity in COUNTED.get(name, []):
            units[f"{name}.{quantity}"] = _UNITS[quantity]
        units[f"{name}.self_s"] = "s"
    units.update({name: "ratio" for name in RATIOS})
    units.update(BENCH_METRICS)
    return units


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._patches = []
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        # per-pass identity registries; hold arrays, not graphs, so nothing
        # the package frees is kept alive beyond one pass
        self._arcs_seen: dict[int, object] = {}
        self._profiles_seen: dict[int, object] = {}
        self._cover_graphs: dict[int, tuple] = {}

    # -- span recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = perf_counter()
        self._stack().pop()

    def _wrap(self, name: str, fn):
        tracer = self
        hook = getattr(self, "_post_" + name.replace(".", "_"), None)
        pre = getattr(self, "_pre_" + name.replace(".", "_"), None)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.counts[name + ".calls"] += 1
                gen = fn(*args, **kwargs)
                while True:
                    rec = tracer._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(rec)
                    tracer.counts[name + ".trees"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(*args, **kwargs) if pre else None
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            tracer.counts[name + ".calls"] += 1
            if hook:
                hook(result, token, *args, **kwargs)
            return result
        return wrapper

    # -- counters taken at layer boundaries ------------------------------------

    def _cover_info(self, g):
        """(base vertex count, deck size) when g is the graph of a cover."""
        info = self._cover_graphs.get(id(g))
        if info is not None and info[0] is g.tails:
            return info[1:]
        return None

    def _pre_graph_girth(self, g):
        return self.counts["graph.cycle_bound_from.calls"]

    def _post_graph_girth(self, result, roots_before, g):
        info = self._cover_info(g)
        if info is not None:
            self.counts["girth.cover_roots"] += (
                self.counts["graph.cycle_bound_from.calls"] - roots_before)
            self.counts["girth.cover_fibers"] += info[0]

    def _post_graph_bfs_distance_matrix(self, result, _token, g, sources):
        rows, n = result.shape
        self.counts["graph.bfs_distance_matrix.rows"] += rows
        # scipy's Dijkstra returns float64 rows before the int64 copy
        self.counts["graph.bfs_distance_matrix.bytes_computed"] += rows * n * 8
        info = self._cover_info(g)
        if info is not None:
            self.counts["bfs.cover_rows"] += rows
            self.counts["bfs.cover_fibers"] += len({int(s) // info[1] for s in sources})

    def _post_graph_arcs(self, result, _token, g):
        if self._arcs_seen.get(id(g)) is not result[0]:
            self._arcs_seen[id(g)] = result[0]
            self.counts["graph.arcs.builds"] += 1

    def _post_cover_build_zm_cover(self, c, _token, *args, **kwargs):
        self.counts["cover.build_zm_cover.vertices"] += c.graph.vertex_count
        self._cover_graphs[id(c.graph)] = (c.graph.tails, c.base.vertex_count,
                                          c.deck_size)

    def _post_cover_base_profiles(self, result, _token, c):
        if self._profiles_seen.get(id(c)) is not result:
            self._profiles_seen[id(c)] = result
            self.counts["cover.base_profiles.builds"] += 1
            self.counts["cover.base_profiles.bytes"] += result.nbytes

    def _post_metrics_verify_compare(self, report, _token, *args, **kwargs):
        self.counts["metrics.verify_compare.pairs"] += report.pairs_checked

    def _post_embed_binary_embed_matrix(self, result, _token, c):
        self.counts["embed.binary_embed_matrix.bytes"] += result.nbytes

    def _post_embed_PsiEmbedding(self, _result, _token, psi, *args, **kwargs):
        self.counts["embed.PsiEmbedding.trees"] += len(psi.trees)

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "homcover" or name.startswith("homcover."))]
        for name, owner, attr in TRACED:
            if isinstance(owner, type):
                fn = owner.__dict__[attr]
                self._patch(owner, attr, fn, self._wrap(name, fn))
                continue
            fn = getattr(sys.modules[owner], attr)
            wrapper = self._wrap(name, fn)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, alias, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- one traced pass ---------------------------------------------------------

    def begin_pass(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._arcs_seen.clear()
        self._profiles_seen.clear()
        self._cover_graphs.clear()
        self._root = self._open(ROOT)

    def end_pass(self, extra_counts: dict) -> dict[str, float]:
        """Close the root span and derive this pass's per-layer figures."""
        self._close(self._root)
        self.counts.update(extra_counts)
        spans = self.spans
        child_time = defaultdict(float)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = Counter()
        for i, (name, _parent, start, end) in enumerate(spans):
            self_s[name] += (end - start) - child_time[i]
        figures = {}
        for name, unit in metric_units().items():
            if name in RATIOS:
                num, den = RATIOS[name]
                figures[name] = (self.counts[num] / self.counts[den]
                                 if self.counts[den] else 0.0)
            elif name.endswith(".self_s"):
                figures[name] = self_s[name[:-len(".self_s")]]
            elif name in BENCH_METRICS:
                continue
            else:
                figures[name] = self.counts[name]
        figures["bench.glue_s"] = self_s[ROOT]
        figures["bench.layers_self_s"] = sum(v for k, v in self_s.items() if k != ROOT)
        figures["bench.wall_s"] = self._root[3] - self._root[2]
        figures["cli.output_bytes"] = self.counts["cli.output_bytes"]
        return figures

    def dump(self, path: str) -> None:
        """Write the last traced pass's spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
