"""Exact spanning-tree machinery.

Counting uses the matrix-tree theorem with fraction-free Bareiss
elimination over Python integers, so all counts are exact at any size.
Enumeration is bounded by an explicit cap; uniform sampling uses Wilson's
loop-erased random walk and is exactly uniform over maximal spanning
trees.  Loops never belong to a spanning tree but do count as cotree
(free-generator) edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from typing import Iterator, Optional

from .errors import CapExceeded, NotConnected, NotSpanningTree
from .graph import MultiGraph, Walk, is_connected

DEFAULT_TREE_CAP = 200_000


@dataclass(frozen=True)
class SpanningTree:
    """Maximal spanning tree rooted at vertex 0.

    parent[v] is (parent vertex, edge id) or None for the root; cotree
    lists the non-tree edges in ascending edge-id order.
    """

    tree_edges: frozenset[int]
    parent: tuple[Optional[tuple[int, int]], ...]
    cotree: tuple[int, ...]

    def depth_order(self) -> list[int]:
        """Vertices ordered so that every parent precedes its children."""
        n = len(self.parent)
        children: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(self.parent):
            if p is not None:
                children[p[0]].append(v)
        order = [0]
        i = 0
        while i < len(order):
            order.extend(children[order[i]])
            i += 1
        return order

    def walk_to_root(self, g: MultiGraph, v: int) -> Walk:
        """Walk from v up to the root along tree edges, as signed arcs."""
        steps = []
        cur = v
        while self.parent[cur] is not None:
            p, e = self.parent[cur]
            steps.append(2 * e + (cur != g.endpoints(e)[0]))
            cur = p
        return Walk(v, tuple(steps))


def _cotree(edge_count: int, tree_edges) -> tuple[int, ...]:
    """The edge ids outside tree_edges, ascending: loops included."""
    off_tree = [True] * edge_count
    for e in tree_edges:
        off_tree[e] = False
    return tuple(compress(range(edge_count), off_tree))


def _tree_from_edge_set(g: MultiGraph, edge_ids) -> SpanningTree:
    return _tree_from_ends(g.tails.tolist(), g.heads.tolist(),
                           g.vertex_count, edge_ids)


def _tree_from_ends(tails: list[int], heads: list[int], n: int,
                    edge_ids) -> SpanningTree:
    """The SpanningTree of `edge_ids` in the graph on n vertices whose
    edge e joins tails[e] to heads[e] (plain lists, read once by the
    caller).  IndexError for an edge id out of range, negative ones
    included; NotSpanningTree for a loop, a wrong edge count or a set
    that does not span."""
    edge_ids = sorted(set(map(int, edge_ids)))
    if len(edge_ids) != n - 1:
        raise NotSpanningTree(f"need {n - 1} edges, got {len(edge_ids)}")
    ne = len(tails)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in edge_ids:
        if not 0 <= e < ne:
            raise IndexError(f"edge {e} out of range")
        t, h = tails[e], heads[e]
        if t == h:
            raise NotSpanningTree(f"edge {e} is a loop")
        adj[t].append((e, h))
        adj[h].append((e, t))
    parent: list[Optional[tuple[int, int]]] = [None] * n
    seen = [False] * n
    seen[0] = True
    queue = [0]
    for u in queue:
        for e, w in adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = (u, e)
                queue.append(w)
    if len(queue) != n:
        raise NotSpanningTree("edge set does not span")
    return SpanningTree(frozenset(edge_ids), tuple(parent),
                        _cotree(ne, edge_ids))


def some_spanning_tree(g: MultiGraph) -> SpanningTree:
    """Deterministic maximal spanning tree: greedy scan in edge-id order."""
    n = g.vertex_count
    comp = list(range(n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    chosen = []
    tails, heads = g.tails.tolist(), g.heads.tolist()
    for e, (t, h) in enumerate(zip(tails, heads)):
        if t == h:
            continue
        rt, rh = find(t), find(h)
        if rt != rh:
            comp[rt] = rh
            chosen.append(e)
            if len(chosen) == n - 1:
                break
    if len(chosen) != n - 1:
        raise NotConnected("graph is not connected")
    return _tree_from_ends(tails, heads, n, chosen)


# -- exact counting -----------------------------------------------------


def _bareiss_det(mat: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination (destroys mat)."""
    n = len(mat)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if mat[i][k] != 0), None)
            if pivot is None:
                return 0
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        pkk = mat[k][k]
        for i in range(k + 1, n):
            mik = mat[i][k]
            row_i = mat[i]
            row_k = mat[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pkk - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * mat[n - 1][n - 1]


def _laplacian_minor(g: MultiGraph) -> list[list[int]]:
    # loops contribute nothing to spanning trees and are excluded
    n = g.vertex_count
    lap = [[0] * n for _ in range(n)]
    for t, h in zip(g.tails, g.heads):
        t, h = int(t), int(h)
        if t == h:
            continue
        lap[t][h] -= 1
        lap[h][t] -= 1
        lap[t][t] += 1
        lap[h][h] += 1
    return [row[1:] for row in lap[1:]]


def count_spanning_trees(g: MultiGraph) -> int:
    """tau(g) by the matrix-tree theorem, exact integer arithmetic."""
    if not is_connected(g):
        raise NotConnected("spanning-tree count requires a connected graph")
    if g.vertex_count == 0:
        raise NotConnected("empty graph")
    return _bareiss_det(_laplacian_minor(g))


def _delete_edge(g: MultiGraph, e: int) -> MultiGraph:
    keep = [i for i in range(g.edge_count) if i != e]
    return MultiGraph.from_arrays(g.vertex_count, g.tails[keep], g.heads[keep])


def count_trees_avoiding(g: MultiGraph, e: int) -> int:
    """N_e: spanning trees not containing edge e; tau(g) for loops,
    0 for bridges."""
    if not 0 <= e < g.edge_count:
        raise IndexError(f"edge {e} out of range")
    if not is_connected(g):
        raise NotConnected("N_e requires a connected graph")
    if g.is_loop(e):
        return count_spanning_trees(g)
    deleted = _delete_edge(g, e)
    if not is_connected(deleted):
        return 0
    return count_spanning_trees(deleted)


@dataclass(frozen=True)
class TreeCounts:
    total: int
    avoiding: tuple[int, ...]
    constant: bool          # all N_e over non-loop edges equal
    common: Optional[int]   # the shared value when constant


def tree_counts(g: MultiGraph) -> TreeCounts:
    total = count_spanning_trees(g)
    avoiding = tuple(count_trees_avoiding(g, e) for e in range(g.edge_count))
    non_loop = [avoiding[e] for e in range(g.edge_count) if not g.is_loop(e)]
    constant = len(set(non_loop)) <= 1
    common = non_loop[0] if constant and non_loop else None
    return TreeCounts(total, avoiding, constant, common)


# -- enumeration --------------------------------------------------------


def _tree_edge_lists(g: MultiGraph, cap: int) -> Iterator[list[int]]:
    """The edge ids of every maximal spanning tree, ascending, in
    lexicographic order; CapExceeded when tau(g) > cap.

    A depth-first search over include/exclude choices, one edge per
    level, include first.  Each pending exclude branch sits on an
    explicit stack as (next edge position, components, number of edges
    chosen); each tree is yielded as soon as it is complete, so memory
    holds one search path, never the list of trees.  The list yielded is
    the search's own and changes once the search resumes."""
    total = count_spanning_trees(g)
    if total > cap:
        raise CapExceeded(f"tau = {total} exceeds cap {cap}")
    n = g.vertex_count
    tails, heads = g.tails.tolist(), g.heads.tolist()
    edges = [e for e, (t, h) in enumerate(zip(tails, heads)) if t != h]

    def find(comp, x):
        while comp[x] != x:
            x = comp[x]
        return x

    chosen: list[int] = []
    stack = [(0, list(range(n)), 0)]
    while stack:
        i, comp, k = stack.pop()
        del chosen[k:]
        while k < n - 1 and len(edges) - i >= (n - 1) - k:
            e = edges[i]
            i += 1
            rt, rh = find(comp, tails[e]), find(comp, heads[e])
            if rt != rh:
                stack.append((i, comp, k))
                comp = list(comp)
                comp[rt] = rh
                chosen.append(e)
                k += 1
        if k == n - 1:
            yield chosen


def _cotrees(g: MultiGraph,
             cap: int = DEFAULT_TREE_CAP) -> Iterator[tuple[int, ...]]:
    """The cotree of every maximal spanning tree, in the order and under
    the cap of `enumerate_spanning_trees`, with no SpanningTree built."""
    ne = g.edge_count
    for chosen in _tree_edge_lists(g, cap):
        yield _cotree(ne, chosen)


def enumerate_spanning_trees(g: MultiGraph,
                             cap: int = DEFAULT_TREE_CAP) -> Iterator[SpanningTree]:
    """Yield every maximal spanning tree exactly once, in lexicographic
    edge-id order.  Raises CapExceeded when tau(g) > cap.  One tree at a
    time from `_tree_edge_lists`."""
    tails, heads = g.tails.tolist(), g.heads.tolist()
    for chosen in _tree_edge_lists(g, cap):
        yield _tree_from_ends(tails, heads, g.vertex_count, chosen)


# -- uniform sampling ---------------------------------------------------


def _sampled_tree_edges(g: MultiGraph, seeds) -> Iterator[list[int]]:
    """The edge ids of an exactly uniform maximal spanning tree per seed,
    by Wilson's loop-erased random walk on random.Random(seed).

    NotConnected for a disconnected or empty graph, before any draw.
    The arcs of vertex u are (edge id, direction, neighbour) in edge-id
    order, read from one `arcs()` call for all the seeds; each step
    draws rng.randrange(deg(u)) among them."""
    n = g.vertex_count
    if n == 0 or not is_connected(g):
        raise NotConnected("sampling requires a connected graph")
    if n == 1:
        for _seed in seeds:
            yield []
        return
    indptr, ae, asg, ah = g.arcs()
    arcs = list(zip(ae.tolist(), asg.tolist(), ah.tolist()))
    bounds = indptr.tolist()
    adj = [arcs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    for seed in seeds:
        randrange = random.Random(seed).randrange
        in_tree = [False] * n
        in_tree[0] = True
        next_arc: list[Optional[tuple[int, int, int]]] = [None] * n
        for v in range(1, n):
            if in_tree[v]:
                continue
            u = v
            while not in_tree[u]:
                out = adj[u]
                arc = out[randrange(len(out))]
                next_arc[u] = arc
                u = arc[2]
            u = v
            while not in_tree[u]:
                in_tree[u] = True
                u = next_arc[u][2]
        # after termination every non-root vertex is committed and its
        # next_arc points along the in-tree
        yield [next_arc[v][0] for v in range(1, n)]


def _sampled_cotrees(g: MultiGraph, seeds) -> Iterator[tuple[int, ...]]:
    """The cotree of `sample_uniform_tree(g, seed)` for each seed in turn,
    with Wilson's set-up done once and no SpanningTree built."""
    ne = g.edge_count
    for edge_ids in _sampled_tree_edges(g, seeds):
        yield _cotree(ne, edge_ids)


def sample_uniform_tree(g: MultiGraph, seed: int) -> SpanningTree:
    """Exactly uniform maximal spanning tree via Wilson's loop-erased
    random walk (`_sampled_tree_edges`); deterministic for a given seed.
    NotConnected for a disconnected or empty graph."""
    edge_ids = next(_sampled_tree_edges(g, (seed,)))
    return _tree_from_edge_set(g, edge_ids)
