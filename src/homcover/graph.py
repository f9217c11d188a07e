"""Finite multigraphs with array-backed adjacency.

Vertices are dense integers ``0..n-1`` and edges are dense integers
``0..|E|-1``.  Each edge stores a fixed orientation (tail -> head) chosen
at load time; the orientation only fixes the sign convention for
edge-traversal counts, traversal itself is always bidirectional.  Loops
and parallel edges are allowed.

Distances come from one engine, `bfs_distance_matrix`: a level-synchronous
BFS over the CSR arcs of `MultiGraph.arcs` that runs up to 64 sources at
once, one bit per source in a uint64 word per vertex; a pass of a single
source keeps a one-byte flag per vertex instead.  scipy is imported only
by `MultiGraph.spmatrix`, so importing the package does not load
`scipy.sparse`.

Graphs are immutable after construction and safe to share between
concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (EndpointOutOfRange, InvalidParameter, ParseError,
                     PathMismatch, SizeCapExceeded)

#: Sentinel stored in distance arrays for unreachable vertices.
UNREACHABLE = 1 << 62

#: Default cap on the number of vertices of any constructed graph.
DEFAULT_SIZE_CAP = 1 << 23


class MultiGraph:
    """Finite oriented multigraph backed by numpy edge arrays."""

    __slots__ = ("vertex_count", "tails", "heads", "labels", "_arc_source",
                 "_indptr", "_arc_edge", "_arc_sign", "_arc_head", "_spmat")

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]] = (),
                 labels: Sequence | None = None):
        if vertex_count < 0:
            raise ParseError("vertex_count must be non-negative")
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ParseError("edges must be a sequence of (tail, head) pairs")
        self._init_arrays(vertex_count, arr[:, 0].copy(), arr[:, 1].copy(), labels)

    @classmethod
    def from_arrays(cls, vertex_count: int, tails: np.ndarray, heads: np.ndarray,
                    labels: Sequence | None = None) -> "MultiGraph":
        g = cls.__new__(cls)
        g._init_arrays(vertex_count,
                       np.ascontiguousarray(tails, dtype=np.int64),
                       np.ascontiguousarray(heads, dtype=np.int64), labels)
        return g

    def _init_arrays(self, vertex_count, tails, heads, labels):
        if tails.shape != heads.shape or tails.ndim != 1:
            raise ParseError("tails and heads must be 1-d arrays of equal length")
        if tails.size and (tails.min() < 0 or heads.min() < 0
                           or tails.max() >= vertex_count or heads.max() >= vertex_count):
            raise EndpointOutOfRange("edge endpoint out of range")
        if labels is not None and len(labels) != tails.size:
            raise ParseError("labels length must equal edge count")
        self.vertex_count = int(vertex_count)
        self.tails = tails
        self.heads = heads
        self.labels = tuple(labels) if labels is not None else None
        self._arc_source = None
        self._indptr = None
        self._arc_edge = None
        self._arc_sign = None
        self._arc_head = None
        self._spmat = None

    # -- basic accessors -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return int(self.tails.size)

    def endpoints(self, e: int) -> tuple[int, int]:
        if not 0 <= e < self.edge_count:
            raise IndexError(f"edge {e} out of range")
        return int(self.tails[e]), int(self.heads[e])

    def is_loop(self, e: int) -> bool:
        t, h = self.endpoints(e)
        return t == h

    def arcs(self):
        """CSR arc arrays (indptr, arc_edge, arc_sign, arc_head).

        Every edge contributes two arcs (one per direction); a loop
        contributes two arcs at its vertex with opposite signs.  Arcs of a
        vertex are sorted by edge id.  Built on first use by sorting, or
        by calling ``_arc_source()`` where one is set: a caller that knows
        the graph's structure returns the same four arrays (a cover lifts
        them from its base's arcs).
        """
        if self._indptr is None:
            build = self._arc_source or self._sorted_arcs
            indptr, self._arc_edge, self._arc_sign, self._arc_head = build()
            # set last: a concurrent caller that sees _indptr sees all arrays
            self._indptr = indptr
        return self._indptr, self._arc_edge, self._arc_sign, self._arc_head

    def _sorted_arcs(self):
        e = self.edge_count
        src = np.concatenate([self.tails, self.heads])
        dst = np.concatenate([self.heads, self.tails])
        eid = np.concatenate([np.arange(e), np.arange(e)])
        sgn = np.concatenate([np.ones(e, np.int8), -np.ones(e, np.int8)])
        order = np.lexsort((eid, src))
        counts = np.bincount(src, minlength=self.vertex_count)
        indptr = np.zeros(self.vertex_count + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, eid[order], sgn[order], dst[order]

    def adjacency_of(self, v: int) -> list[tuple[int, int, int]]:
        """Arcs at v as (edge_id, direction, neighbor), edge-id order."""
        if not 0 <= v < self.vertex_count:
            raise IndexError(f"vertex {v} out of range")
        indptr, ae, asg, ah = self.arcs()
        lo, hi = indptr[v], indptr[v + 1]
        return [(int(ae[i]), int(asg[i]), int(ah[i])) for i in range(lo, hi)]

    def degrees(self) -> np.ndarray:
        indptr = self.arcs()[0]
        return np.diff(indptr)

    def spmatrix(self) -> "scipy.sparse.csr_matrix":
        """Unweighted adjacency as a scipy CSR matrix (multiplicity summed)."""
        if self._spmat is None:
            from scipy.sparse import csr_matrix

            e = self.edge_count
            src = np.concatenate([self.tails, self.heads])
            dst = np.concatenate([self.heads, self.tails])
            data = np.ones(2 * e, dtype=np.int8)
            n = self.vertex_count
            self._spmat = csr_matrix((data, (src, dst)), shape=(n, n))
        return self._spmat

    def __repr__(self):
        return f"MultiGraph(|V|={self.vertex_count}, |E|={self.edge_count})"


@dataclass(frozen=True)
class Walk:
    """An edge walk: a start vertex and signed-arc steps.

    Step 2e traverses edge e tail -> head and step 2e + 1 traverses it
    head -> tail, so a step's reverse is step ^ 1.  Edges and vertices
    may repeat.
    """

    start: int
    steps: tuple[int, ...] = ()

    def vertices(self, g: MultiGraph) -> list[int]:
        """All vertices visited, start first; raises PathMismatch if
        broken and IndexError for an arc out of range."""
        cur = self.start
        if not 0 <= cur < g.vertex_count:
            raise PathMismatch(f"start vertex {cur} out of range")
        out = [cur]
        for arc in self.steps:
            t, h = g.endpoints(arc >> 1)
            if arc & 1:
                t, h = h, t
            if cur != t:
                raise PathMismatch(f"arc {arc} does not start at {cur}")
            cur = h
            out.append(cur)
        return out

    def end(self, g: MultiGraph) -> int:
        return self.vertices(g)[-1]

    def __len__(self):
        return len(self.steps)


def signed_arc_counts(arcs, edge_count: int) -> np.ndarray:
    """Signed traversal count of each edge along the signed arcs `arcs`
    (each in 0..2 * edge_count - 1): +1 per forward arc, -1 per backward
    arc; int64, shape (edge_count,)."""
    per_arc = np.bincount(np.asarray(arcs, dtype=np.int64),
                          minlength=2 * edge_count)
    return per_arc[0::2] - per_arc[1::2]


# -- documents ----------------------------------------------------------


def load_graph(doc: dict) -> MultiGraph:
    """Build a MultiGraph from a graph document.

    Document format: {"vertices": N, "edges": [[tail, head], ...],
    "labels": optional array}.  Indices are 0-based.
    """
    if not isinstance(doc, dict):
        raise ParseError("graph document must be a JSON object")
    try:
        n = doc["vertices"]
        edges = doc["edges"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing field in graph document: {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError("'vertices' must be an integer")
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list of pairs")
    for pair in edges:
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)):
            raise ParseError(f"bad edge entry: {pair!r}")
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ParseError("'labels' must be a list")
    return MultiGraph(n, edges, labels)


def graph_document(g: MultiGraph) -> dict:
    doc = {
        "vertices": g.vertex_count,
        "edges": [[int(t), int(h)] for t, h in zip(g.tails, g.heads)],
    }
    if g.labels is not None:
        doc["labels"] = list(g.labels)
    return doc


# -- BFS metrics --------------------------------------------------------


#: Sources per bit-parallel BFS pass: one bit each in a uint64 word.
_BFS_WORD_BITS = 64

#: A level pushes from its frontier, instead of pulling at every vertex,
#: when the frontier's arcs are at most all arcs over this ratio.  For 32
#: sources on the 531,441-vertex tower level 8, 16 and 32 run about
#: equally fast; 4 is slower and its push temporaries add 8 MB at the peak.
_PUSH_RATIO = 16

#: The same switch for one source, measured on a 2-vCPU Xeon guest.  A
#: one-byte pull costs about what a push of a quarter of the arcs does:
#: on the tower level 1 (never pull), 2 and 4 run alike, since no
#: frontier there holds 17% of the arcs, and 8 is 20-40% slower; on a
#: 200,000-vertex random graph of mean degree 20, whose frontiers reach
#: half the arcs, 4 and 8 take 31 ms and 1 takes 60 ms.
_PUSH_RATIO_ONE = 4

#: A one-source push below |V| / _CLAIM_RATIO arcs finds its new vertices
#: through `claim`, at a cost in its own size; from there on it sets
#: flags and scans all |V| of them, which also sorts the next frontier.
#: On the tower level 4, 16 and 64 run alike; claiming on every level is
#: about 40% slower there, and flagging on every level makes the 32,768
#: levels of the 65,536-cycle take 7.3 s instead of 0.5 s.
_CLAIM_RATIO = 16


def bfs_distance_matrix(g: MultiGraph, sources: Sequence[int]) -> np.ndarray:
    """Shortest-path distances from each source; shape (len(sources), |V|).

    int64, with UNREACHABLE where no path exists.  Row i belongs to
    sources[i]; sources may repeat, and one out of range raises IndexError.

    The sources run 64 at a time, source j of a pass owning bit j of one
    uint64 word per vertex, so every level of the BFS advances all of them
    together (Akiba, Iwata and Yoshida, SIGMOD 2013).  The frontier is a
    list of vertices and their new bits.  A level pulls, OR-ing the
    frontier words at every vertex's arc heads in one
    ``bitwise_or.reduceat`` over the CSR arcs; when the frontier has few
    arcs it pushes them instead, at a cost in its own size rather than
    |V| (the direction switch of Beamer, Asanović and Patterson, SC 2012).
    Loops and parallel arcs only repeat a bit, so they never shorten a
    distance.  A pass of one source, as the last of 1, 65, 129, ...
    sources, runs in `_one_source_row`.
    """
    sources = list(sources)
    n = g.vertex_count
    for s in sources:
        if not 0 <= s < n:
            raise IndexError(f"source {s} out of range")
    out = np.full((len(sources), n), UNREACHABLE, dtype=np.int64)
    if not sources:
        return out
    indptr, _ae, _asg, heads = g.arcs()
    degree = np.diff(indptr)
    # reduceat cannot start a segment at the end of the arcs: pull only up
    # to the trailing run of arc-less vertices
    pull_end = int(np.searchsorted(indptr, heads.size))
    # scratch for the whole call, reused by every chunk and level: a level
    # allocates nothing |V|- or arc-sized beyond its frontier, so the peak
    # RSS does not hinge on where the allocator finds room for temporaries,
    # which depends on the heap layout the process happened to leave
    claim = np.empty(n, dtype=np.int64)
    if len(sources) % _BFS_WORD_BITS == 1:
        # a last pass of one source runs without words
        _one_source_row(indptr, degree, heads, pull_end, sources.pop(),
                        out[-1], claim)
        if not sources:
            return out
    # words_at is zero between levels; _merge ORs pushed bits into it
    words_at = np.zeros(n, dtype=np.uint64)
    unvisited = np.empty(n, dtype=np.uint64)
    # zero past pull_end for good: only arc-less vertices live there
    pulled = np.zeros(n, dtype=np.uint64)
    gathered = np.empty(heads.size, dtype=np.uint64)
    for lo in range(0, len(sources), _BFS_WORD_BITS):
        chunk = np.asarray(sources[lo:lo + _BFS_WORD_BITS], dtype=np.int64)
        bits = np.left_shift(np.uint64(1), np.arange(chunk.size, dtype=np.uint64))
        unvisited.fill(~np.uint64(0))
        active, words = _merge(chunk, bits, words_at, claim, unvisited)
        # arc-less vertices are reached only as sources; marking them
        # visited masks the a[start] that reduceat reads for an empty segment
        unvisited[degree == 0] = 0
        rows = out[lo:lo + chunk.size]
        level = 0
        while active.size:
            for j, bit in enumerate(bits):
                rows[j, active[(words & bit) != 0]] = level
            level += 1
            active_degree = degree[active]
            active_arcs = int(active_degree.sum())
            if active_arcs * _PUSH_RATIO <= heads.size:
                arc = _frontier_arcs(indptr, active, active_degree,
                                     active_arcs)
                active, words = _merge(heads[arc],
                                       np.repeat(words, active_degree),
                                       words_at, claim, unvisited)
            else:
                words_at[active] = words
                # mode="clip" lets take write straight into out; every
                # head is in range anyway
                np.take(words_at, heads, out=gathered, mode="clip")
                np.bitwise_or.reduceat(gathered, indptr[:pull_end],
                                       out=pulled[:pull_end])
                words_at[active] = 0
                pulled &= unvisited
                active = np.flatnonzero(pulled)
                words = pulled[active]
                unvisited[active] ^= words
    return out


def _one_source_row(indptr, degree, heads, pull_end, source, row, claim):
    """BFS from one source into row (all UNREACHABLE on entry).

    With one source a vertex's word would hold one bit, so the frontier
    is a list of vertices, merged through a uint8 flag per vertex.  A
    pull reads 2|E| flag bytes.  A push gathers its arcs' heads and keeps
    each unvisited one once: below |V| / _CLAIM_RATIO arcs through one
    `claim` slot per head, at a cost in the frontier's size, and above
    that by setting flags and scanning all |V| of them, which leaves the
    next frontier sorted for the gathers of the level after.  No ufunc
    ``.at`` merge runs.
    """
    # arc-less vertices are reached only as the source (see above)
    unvisited = degree != 0
    unvisited[source] = False
    flag = np.zeros(row.size, dtype=np.uint8)
    gathered = np.empty(heads.size, dtype=np.uint8)
    active = np.array([source], dtype=np.int64)
    level = 0
    while active.size:
        row[active] = level
        level += 1
        active_degree = degree[active]
        active_arcs = int(active_degree.sum())
        if active_arcs * _PUSH_RATIO_ONE > heads.size:
            flag[active] = 1
            np.take(flag, heads, out=gathered, mode="clip")
            # every active vertex has arcs, so this overwrites its flag
            np.bitwise_or.reduceat(gathered, indptr[:pull_end],
                                   out=flag[:pull_end])
            active = _flagged(flag, unvisited)
        else:
            reached = heads[_frontier_arcs(indptr, active, active_degree,
                                           active_arcs)]
            if active_arcs * _CLAIM_RATIO < row.size:
                reached = reached[unvisited[reached]]
                slot = np.arange(reached.size)
                claim[reached] = slot
                active = reached[claim[reached] == slot]
            else:
                flag[reached] = 1
                active = _flagged(flag, unvisited)
        unvisited[active] = False


def _frontier_arcs(indptr, active, active_degree, active_arcs):
    """CSR indices of the arcs at the active vertices, vertex by vertex."""
    arc = np.repeat(indptr[active] - np.cumsum(active_degree) + active_degree,
                    active_degree)
    arc += np.arange(active_arcs)
    return arc


def _flagged(flag, unvisited):
    """The unvisited vertices whose flag is set, ascending; clears flag."""
    flag &= unvisited.view(np.uint8)
    found = np.flatnonzero(flag)
    flag[found] = 0
    return found


def _merge(targets, values, words_at, claim, unvisited):
    """OR each value into its target vertex's word; return the vertices
    that gain unvisited bits with those bits, now marked visited.

    words_at is zero on entry and on return.  claim picks one slot per
    distinct target: whichever slot a repeated index store leaves in
    claim[t], exactly one slot of t matches it.
    """
    np.bitwise_or.at(words_at, targets, values)
    slot = np.arange(targets.size)
    claim[targets] = slot
    targets = targets[claim[targets] == slot]
    words = words_at[targets] & unvisited[targets]
    words_at[targets] = 0
    keep = words != 0
    targets, words = targets[keep], words[keep]
    unvisited[targets] ^= words
    return targets, words


# -- girth --------------------------------------------------------------


def _has_loop(g: MultiGraph) -> bool:
    return bool(np.any(g.tails == g.heads))


def _has_parallel_pair(g: MultiGraph) -> bool:
    mask = g.tails != g.heads
    if not np.any(mask):
        return False
    lo = np.minimum(g.tails[mask], g.heads[mask])
    hi = np.maximum(g.tails[mask], g.heads[mask])
    code = np.sort(lo * g.vertex_count + hi)
    return bool(np.any(code[1:] == code[:-1]))


def cycle_bound_from(g: MultiGraph, root: int, best=math.inf):
    """Truncated BFS from root; min over detected closed walks of their length.

    The returned bound never undercuts the girth, and is exactly the girth
    whenever root lies on a shortest cycle.
    """
    indptr, ae, _asg, ah = g.arcs()
    dist = np.full(g.vertex_count, -1, dtype=np.int64)
    via = np.full(g.vertex_count, -1, dtype=np.int64)
    dist[root] = 0
    frontier = [root]
    level = 0
    while frontier and 2 * level < best:
        nxt = []
        for u in frontier:
            for i in range(indptr[u], indptr[u + 1]):
                w = int(ah[i])
                e = int(ae[i])
                dw = dist[w]
                if dw < 0:
                    dist[w] = level + 1
                    via[w] = e
                    nxt.append(w)
                elif not (e == via[u] and dw == level - 1):
                    cand = level + int(dw) + 1
                    if cand < best:
                        best = cand
        level += 1
        frontier = nxt
    return best


def _girth_from_roots(g: MultiGraph, roots: Iterable[int]):
    """Loop and parallel-pair shortcuts, then the least cycle bound over
    the roots.  Exact whenever some shortest cycle passes through a root."""
    if _has_loop(g):
        return 1
    if _has_parallel_pair(g):
        return 2
    return _least_cycle_bound(g, roots)


def _least_cycle_bound(g: MultiGraph, roots: Iterable[int]):
    """The least cycle bound over the roots.  The girth of g whenever g
    has no loop and no parallel pair and some shortest cycle passes
    through a root."""
    best = math.inf
    for root in roots:
        best = cycle_bound_from(g, root, best)
        if best == 3:
            break
    return best if best is math.inf else int(best)


def girth(g: MultiGraph):
    """Length of the shortest cycle: 1 for a loop, 2 for a parallel pair,
    math.inf for forests.  Per-source truncated BFS."""
    return _girth_from_roots(g, range(g.vertex_count))


# -- label symmetry -----------------------------------------------------


def _arc_keys(g: MultiGraph):
    """Per vertex, {(label, direction): (edge, neighbour)} over its arcs.

    None when g has no labels, a label is unhashable (a list or dict read
    from a document) or a vertex repeats a (label, direction): then the
    labels cannot steer an automorphism.
    """
    if g.labels is None:
        return None
    indptr, ae, asg, ah = g.arcs()
    keys = []
    for v in range(g.vertex_count):
        at = {}
        for i in range(indptr[v], indptr[v + 1]):
            e = int(ae[i])
            try:
                at[g.labels[e], int(asg[i])] = (e, int(ah[i]))
            except TypeError:
                return None
        if len(at) != indptr[v + 1] - indptr[v]:
            return None
        keys.append(at)
    return keys


def _label_automorphism(g: MultiGraph, keys, v: int):
    """The label-preserving automorphism of g with 0 -> v, or None.

    Following arcs from 0 fixes it: the arc of (label l, direction d) at
    u goes to the arc of (l, s_l * d) at its image.  s_l = -1 where the
    directions of label l at v differ from those at 0 (the m = 2 Cayley
    graph stores each involution edge once, so a translation reverses
    some of them).  The result is checked as an automorphism of g.
    """
    def directions(at):
        out = {}
        for label, d in at:
            out.setdefault(label, set()).add(d)
        return out

    at0 = directions(keys[0])
    flip = {label for label, ds in at0.items()
            if ds != directions(keys[v]).get(label)}
    vmap = np.full(g.vertex_count, -1, dtype=np.int64)
    emap = np.full(g.edge_count, -1, dtype=np.int64)
    signs = np.ones(g.edge_count, dtype=np.int64)
    vmap[0] = v
    queue = [0]
    for u in queue:
        image = keys[vmap[u]]
        for (label, d), (e, w) in keys[u].items():
            s = -1 if label in flip else 1
            hit = image.get((label, s * d))
            if hit is None:
                return None
            emap[e], signs[e] = hit[0], s
            if vmap[w] < 0:
                vmap[w] = hit[1]
                queue.append(w)
            elif vmap[w] != hit[1]:
                return None
    return (vmap, emap, signs) if _is_automorphism(g, vmap, emap, signs) else None


def _is_permutation(p: np.ndarray) -> bool:
    hit = np.zeros(p.size, dtype=bool)
    hit[p[(p >= 0) & (p < p.size)]] = True
    return bool(hit.all())


def _is_automorphism(g: MultiGraph, vmap, emap, signs) -> bool:
    """True iff vmap and emap are bijections and edge e goes to edge
    emap[e] with endpoints (vmap[tail], vmap[head]), swapped where
    signs[e] < 0."""
    if not (_is_permutation(vmap) and _is_permutation(emap)):
        return False
    fwd = signs > 0
    t, h = vmap[g.tails], vmap[g.heads]
    return bool(np.array_equal(g.tails[emap], np.where(fwd, t, h))
                and np.array_equal(g.heads[emap], np.where(fwd, h, t)))


def label_automorphisms(g: MultiGraph) -> list:
    """Checked label-preserving automorphisms (vertex map, edge map, edge
    signs) of g, one taking 0 to each neighbour of 0 where one exists.

    If all exist they generate a vertex-transitive group on a connected g:
    the group carries a path from 0 along itself, one step at a time.
    Empty when g is unlabelled or its labels cannot steer (`_arc_keys`).
    """
    keys = _arc_keys(g)
    if not keys:
        return []
    targets = sorted({w for _e, w in keys[0].values()} - {0})
    return [auto for auto in (_label_automorphism(g, keys, v) for v in targets)
            if auto is not None]


class Orbits:
    """Orbits of the group generated by the vertex permutations joined so
    far, each named by its least vertex (a union-find that keeps the
    least vertex as root)."""

    def __init__(self, n: int):
        self._parent = list(range(n))

    def find(self, u: int) -> int:
        parent = self._parent
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def join(self, perm: np.ndarray) -> None:
        for u, w in enumerate(perm.tolist()):
            a, b = self.find(u), self.find(w)
            if a != b:
                self._parent[max(a, b)] = min(a, b)

    def least(self) -> np.ndarray:
        """Per vertex, the least vertex of its orbit."""
        return np.array([self.find(u) for u in range(len(self._parent))],
                        dtype=np.int64)

    def roots(self) -> list[int]:
        """The least vertex of each orbit, ascending."""
        return [u for u in range(len(self._parent)) if self.find(u) == u]


# -- connectivity -------------------------------------------------------


def is_connected(g: MultiGraph) -> bool:
    if g.vertex_count <= 1:
        return True
    indptr, _ae, _asg, ah = g.arcs()
    seen = np.zeros(g.vertex_count, dtype=bool)
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for i in range(indptr[u], indptr[u + 1]):
            w = int(ah[i])
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == g.vertex_count


def is_two_edge_connected(g: MultiGraph) -> bool:
    """True iff g is connected and bridgeless.  Loops are never bridges."""
    n = g.vertex_count
    if n == 0:
        return False
    if n == 1:
        return True
    indptr, ae, _asg, ah = g.arcs()
    disc = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    timer = 0
    # iterative DFS; each frame is (vertex, entry edge id, next arc index)
    disc[0] = low[0] = timer
    timer += 1
    stack = [(0, -1, int(indptr[0]))]
    visited = 1
    while stack:
        u, entry_edge, i = stack[-1]
        if i < indptr[u + 1]:
            stack[-1] = (u, entry_edge, i + 1)
            w = int(ah[i])
            e = int(ae[i])
            if e == entry_edge:
                continue  # do not reuse the arc we came in on
            if disc[w] < 0:
                disc[w] = low[w] = timer
                timer += 1
                visited += 1
                stack.append((w, e, int(indptr[w])))
            else:
                low[u] = min(low[u], disc[w])
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] > disc[p]:
                    return False  # entry edge of u is a bridge
    return visited == n


# -- constructors -------------------------------------------------------


def cycle_graph(n: int) -> MultiGraph:
    """C_n; n=1 is a single loop, n=2 a doubled edge."""
    if n < 1:
        raise InvalidParameter("cycle needs at least one vertex")
    return MultiGraph(n, [[i, (i + 1) % n] for i in range(n)])


def complete_graph(n: int) -> MultiGraph:
    return MultiGraph(n, [[i, j] for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> MultiGraph:
    return MultiGraph(n, [[i, i + 1] for i in range(n - 1)])


def doubled_edge() -> MultiGraph:
    """Two vertices joined by two parallel edges (fundamental group Z)."""
    return MultiGraph(2, [[0, 1], [0, 1]])


def petersen_graph() -> MultiGraph:
    outer = [[i, (i + 1) % 5] for i in range(5)]
    spokes = [[i, i + 5] for i in range(5)]
    inner = [[5 + i, 5 + (i + 2) % 5] for i in range(5)]
    return MultiGraph(10, outer + spokes + inner)


def cayley_zm_power(n: int, m: int, size_cap: int = DEFAULT_SIZE_CAP) -> MultiGraph:
    """Cayley graph of Z_m^n with one standard generator per factor.

    Vertices are tuples in Z_m^n in lexicographic order.  For m >= 3 every
    vertex emits one edge per generator (n * m^n edges, 2n-regular).  For
    m = 2 the generators are involutions and each unordered pair gets a
    single edge (n-regular).
    """
    if n < 1 or m < 2:
        raise InvalidParameter("need n >= 1 and m >= 2")
    size = m ** n
    if size > size_cap:
        raise SizeCapExceeded(f"{m}^{n} = {size} exceeds cap {size_cap}")
    idx = np.arange(size, dtype=np.int64)
    # vertex-major, generator-minor edge order
    head_cols = np.empty((size, n), dtype=np.int64)
    keep_cols = np.ones((size, n), dtype=bool)
    for i in range(n):
        stride = m ** (n - 1 - i)  # lexicographic order: coordinate 0 is most significant
        digit = (idx // stride) % m
        head_cols[:, i] = idx + np.where(digit < m - 1, stride, -(m - 1) * stride)
        if m == 2:
            keep_cols[:, i] = digit == 0
    tails = np.repeat(idx, n)
    heads = head_cols.reshape(-1)
    labels_arr = np.tile(np.arange(n), size)
    keep = keep_cols.reshape(-1)
    return MultiGraph.from_arrays(size, tails[keep], heads[keep],
                                  labels=labels_arr[keep].tolist())


_NAMED = {
    "doubled_edge": doubled_edge,
    "k4": lambda: complete_graph(4),
    "c5": lambda: cycle_graph(5),
    "petersen": petersen_graph,
}


_SIZED = {"cycle": cycle_graph, "complete": complete_graph, "path": path_graph}


def named_graph(name: str) -> MultiGraph:
    """Look up a named test graph; supports cycle:<n>, complete:<n> and path:<n>.

    A size that is not an integer >= 1 raises ParseError.
    """
    if name in _NAMED:
        return _NAMED[name]()
    kind, _, arg = name.partition(":")
    if kind in _SIZED:
        if not arg.isdecimal() or int(arg) < 1:
            raise ParseError(f"graph size in {name!r} must be an integer >= 1")
        return _SIZED[kind](int(arg))
    raise ParseError(f"unknown graph name: {name!r}")
