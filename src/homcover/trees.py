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


def _tree_from_edge_set(g: MultiGraph, edge_ids) -> SpanningTree:
    n = g.vertex_count
    edge_ids = sorted(set(int(e) for e in edge_ids))
    if len(edge_ids) != n - 1:
        raise NotSpanningTree(f"need {n - 1} edges, got {len(edge_ids)}")
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in edge_ids:
        t, h = g.endpoints(e)
        if t == h:
            raise NotSpanningTree(f"edge {e} is a loop")
        adj[t].append((e, h))
        adj[h].append((e, t))
    parent: list[Optional[tuple[int, int]]] = [None] * n
    seen = [False] * n
    seen[0] = True
    queue = [0]
    i = 0
    while i < len(queue):
        u = queue[i]
        i += 1
        for e, w in adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = (u, e)
                queue.append(w)
    if not all(seen):
        raise NotSpanningTree("edge set does not span")
    tree = frozenset(edge_ids)
    cotree = tuple(e for e in range(g.edge_count) if e not in tree)
    return SpanningTree(tree, tuple(parent), cotree)


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
    for e in range(g.edge_count):
        t, h = g.endpoints(e)
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
    return _tree_from_edge_set(g, chosen)


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


def enumerate_spanning_trees(g: MultiGraph,
                             cap: int = DEFAULT_TREE_CAP) -> Iterator[SpanningTree]:
    """Yield every maximal spanning tree exactly once, in lexicographic
    edge-id order.  Raises CapExceeded when tau(g) > cap."""
    total = count_spanning_trees(g)
    if total > cap:
        raise CapExceeded(f"tau = {total} exceeds cap {cap}")
    n = g.vertex_count
    edges = [e for e in range(g.edge_count) if not g.is_loop(e)]

    def find(comp, x):
        while comp[x] != x:
            x = comp[x]
        return x

    def rec(i: int, comp: list[int], chosen: list[int]):
        if len(chosen) == n - 1:
            yield _tree_from_edge_set(g, chosen)
            return
        if len(edges) - i < (n - 1) - len(chosen):
            return
        e = edges[i]
        t, h = g.endpoints(e)
        rt, rh = find(comp, t), find(comp, h)
        if rt != rh:
            nxt = list(comp)
            nxt[rt] = rh
            chosen.append(e)
            yield from rec(i + 1, nxt, chosen)
            chosen.pop()
        yield from rec(i + 1, comp, chosen)

    yield from rec(0, list(range(n)), [])


# -- uniform sampling ---------------------------------------------------


def sample_uniform_tree(g: MultiGraph, seed: int) -> SpanningTree:
    """Exactly uniform maximal spanning tree via Wilson's loop-erased
    random walk; deterministic for a given seed."""
    if not is_connected(g):
        raise NotConnected("sampling requires a connected graph")
    n = g.vertex_count
    if n == 1:
        return _tree_from_edge_set(g, [])
    rng = random.Random(seed)
    adj = [g.adjacency_of(v) for v in range(n)]
    in_tree = [False] * n
    in_tree[0] = True
    next_arc: list[Optional[tuple[int, int, int]]] = [None] * n
    for v in range(1, n):
        if in_tree[v]:
            continue
        u = v
        while not in_tree[u]:
            arc = adj[u][rng.randrange(len(adj[u]))]
            next_arc[u] = arc
            u = arc[2]
        u = v
        while not in_tree[u]:
            in_tree[u] = True
            u = next_arc[u][2]
    # after termination every non-root vertex is committed and its
    # next_arc points along the in-tree
    edge_ids = [next_arc[v][0] for v in range(1, n)]
    return _tree_from_edge_set(g, edge_ids)
