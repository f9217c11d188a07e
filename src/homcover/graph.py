"""Finite multigraphs with array-backed adjacency.

Vertices are dense integers ``0..n-1`` and edges are dense integers
``0..|E|-1``.  Each edge stores a fixed orientation (tail -> head) chosen
at load time; the orientation only fixes the sign convention for
edge-traversal counts, traversal itself is always bidirectional.  Loops
and parallel edges are allowed.

Each graph has sorted CSR arcs, `MultiGraph.arcs`; a cover's graph also
holds the targets of the signed-arc table that `cover.build_zm_cover`
writes, `MultiGraph.arc_heads`, with its heads as the even entries.  An
arc's source follows from its slot and the base, so the table stores
none, and a cover's tails are derived from that slot formula on first
read.
Distances come from one engine, `bfs_distance_matrix`: a
level-synchronous BFS per source, with a one-byte flag per vertex.  A
plain graph steps along its CSR heads; a cover steps from its base's CSR
arcs into its own table, and a large level of a large deck moves whole
per-fiber frontier masks by the deck moves of the base's arcs.  scipy is imported only by
`MultiGraph.spmatrix`, so importing the package does not load
`scipy.sparse`.

Graphs are immutable after construction and safe to share between
concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import (EndpointOutOfRange, InvalidParameter, NoArcTable,
                     ParseError, PathMismatch, SizeCapExceeded)

#: Sentinel stored in distance arrays for unreachable vertices.
UNREACHABLE = 1 << 62

#: Default cap on the number of vertices of any constructed graph.
DEFAULT_SIZE_CAP = 1 << 23


def _index_dtype(count: int) -> np.dtype:
    """Narrowest signed dtype for ids 0..count-1: int32 while count <
    2**31, else int64."""
    return np.dtype(np.int32 if count < 1 << 31 else np.int64)


class MultiGraph:
    """Finite oriented multigraph backed by numpy edge arrays.

    A plain graph stores its tails and heads.  The graph of a built cover
    (`from_arc_heads`) stores only its arc table's targets, whose even
    entries are the heads; its tails are derived from the slot formula.
    """

    __slots__ = ("vertex_count", "_tails", "heads", "labels", "_lift",
                 "_moves", "_arcs", "_dst", "_spmat")

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]] = (),
                 labels: Sequence | None = None):
        if vertex_count < 0:
            raise ParseError("vertex_count must be non-negative")
        try:
            arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray)
                             else edges)
        except ValueError as exc:  # ragged pairs
            raise ParseError(f"edges must be (tail, head) pairs: {exc}") from exc
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ParseError("edges must be a sequence of (tail, head) pairs")
        self._init_arrays(vertex_count, arr[:, 0].copy(), arr[:, 1].copy(), labels)

    @classmethod
    def from_arrays(cls, vertex_count: int, tails: np.ndarray, heads: np.ndarray,
                    labels: Sequence | None = None) -> "MultiGraph":
        """A graph on the given edge arrays.  int32 and int64 arrays are
        stored as given, views included; other integer types are widened
        to int64, and any other type raises ParseError."""
        g = cls.__new__(cls)
        g._init_arrays(vertex_count, np.asarray(tails), np.asarray(heads), labels)
        return g

    def _init_arrays(self, vertex_count, tails, heads, labels):
        if tails.shape != heads.shape or tails.ndim != 1:
            raise ParseError("tails and heads must be 1-d arrays of equal length")
        if tails.size == 0:
            tails = heads = np.zeros(0, dtype=np.int64)
        elif tails.dtype.kind not in "iu" or heads.dtype.kind not in "iu":
            # no float truncated, no bool or string read as an id
            raise ParseError(f"edge endpoints must be integers, not "
                             f"{tails.dtype} and {heads.dtype}")
        if tails.size and (tails.min() < 0 or heads.min() < 0
                           or tails.max() >= vertex_count or heads.max() >= vertex_count):
            raise EndpointOutOfRange("edge endpoint out of range")
        if labels is not None and len(labels) != tails.size:
            raise ParseError("labels length must equal edge count")
        self.vertex_count = int(vertex_count)
        self._tails, self.heads = (
            a if a.dtype in (np.int32, np.int64) else a.astype(np.int64)
            for a in (tails, heads))
        self.labels = tuple(labels) if labels is not None else None
        self._lift = None
        self._moves = None
        self._arcs = None
        self._dst = None
        self._spmat = None

    @classmethod
    def from_arc_heads(cls, vertex_count: int, dst: np.ndarray,
                       base: "MultiGraph", deck: int, moves) -> "MultiGraph":
        """The graph of a cover of `base` with `deck` ranks per fiber,
        given as the targets `dst` of its signed-arc table (`arc_heads`);
        `moves` is (m, each base edge's cotree stride, 0 for a tree edge),
        for `bfs_distance_matrix`.  The heads are dst's even entries, a
        view, checked to be in range; EndpointOutOfRange if one is not.
        The tails are not stored (see `tails`).
        """
        heads = dst[0::2]
        if heads.size and (heads.min() < 0 or heads.max() >= vertex_count):
            raise EndpointOutOfRange("edge endpoint out of range")
        g = cls.__new__(cls)
        g.vertex_count = int(vertex_count)
        g._tails, g.heads, g.labels = None, heads, None
        g._lift, g._moves = (base, deck), moves
        g._arcs = g._spmat = None
        g._dst = dst
        return g

    # -- basic accessors -------------------------------------------------

    @property
    def tails(self) -> np.ndarray:
        """Tail of every edge.  A plain graph's stored array; on a built
        cover's graph derived once, on first read, from the slot formula
        (cover edge i = e * deck + k runs from base tail t_e at rank k,
        t_e * deck + k), in the table's dtype, cached and read-only."""
        if self._tails is None:
            base, deck = self._lift
            tails = np.empty(self.heads.size, dtype=self._dst.dtype)
            np.add((base.tails.astype(tails.dtype) * deck)[:, None],
                   np.arange(deck, dtype=tails.dtype),
                   out=tails.reshape(-1, deck))
            tails.setflags(write=False)
            self._tails = tails
        return self._tails

    @property
    def edge_count(self) -> int:
        return int(self.heads.size)

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
        vertex are sorted by edge id.  Built by sorting on first use.
        """
        if self._arcs is None:
            e = self.edge_count
            src = np.concatenate([self.tails, self.heads])
            dst = np.concatenate([self.heads, self.tails])
            eid = np.concatenate([np.arange(e), np.arange(e)])
            sgn = np.concatenate([np.ones(e, np.int8), -np.ones(e, np.int8)])
            order = np.lexsort((eid, src))
            counts = np.bincount(src, minlength=self.vertex_count)
            indptr = np.zeros(self.vertex_count + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._arcs = indptr, eid[order], sgn[order], dst[order]
        return self._arcs

    def arc_heads(self) -> np.ndarray:
        """Target of every signed arc of a cover's graph: the table
        `cover.build_zm_cover` writes, with `heads` as its even entries.
        NoArcTable (a ValueError) on a graph built any other way, which
        has no table.

        Arc 2i + b belongs to cover edge slot i = e * deck + k (base edge
        e = (t, h), label rank k): arc 2i is edge i forward, from t * deck
        + k, and arc 2i + 1 runs backward from h * deck + k, the head
        vertex of rank k over e.  So base arc 2e + b taken at rank k is
        table arc 2i + b, and its source is the base arc's source at rank
        k: the slot formula, which is why the table stores no sources.
        """
        if self._dst is None:
            raise NoArcTable("only the graph of a built cover has an arc table")
        return self._dst

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


def load_graph(doc: dict, size_cap: int = DEFAULT_SIZE_CAP) -> MultiGraph:
    """Build a MultiGraph from a graph document.

    Document format: {"vertices": N, "edges": [[tail, head], ...],
    "labels": optional array}.  Indices are 0-based.  SizeCapExceeded if
    N is above size_cap.
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
    if n > size_cap:
        raise SizeCapExceeded(f"graph has {n} vertices, cap is {size_cap}")
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list of pairs")
    plain = _plain_pairs(edges)
    if not plain:
        for pair in edges:
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or not all(isinstance(x, int) and not isinstance(x, bool)
                               for x in pair)):
                raise ParseError(f"bad edge entry: {pair!r}")
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ParseError("'labels' must be a list")
    if plain:
        # the ids straight into one int64 array, no list of the pairs;
        # an id beyond int64 is left to MultiGraph, which rejects it
        try:
            edges = np.fromiter(chain.from_iterable(edges), np.int64,
                                2 * len(edges)).reshape(-1, 2)
        except OverflowError:
            pass
    return MultiGraph(n, edges, labels)


def _plain_pairs(edges: list) -> bool:
    """True iff every entry is a list or tuple of two ints of type int.

    The checks are C-level passes over the entries, with no Python loop
    per pair.  False does not mean that load_graph refuses the entries:
    it then checks pair by pair, which accepts subclasses of list, tuple
    and int (bool excepted) and names the first bad entry.
    """
    return (set(map(type, edges)) <= {list, tuple}
            and set(map(len, edges)) <= {2}
            and set(map(type, chain.from_iterable(edges))) <= {int})


def _document_fields(g: MultiGraph) -> dict:
    """g's graph document with "edges" None, for writers that put the
    edge list in from the arrays."""
    doc = {"vertices": g.vertex_count, "edges": None}
    if g.labels is not None:
        doc["labels"] = list(g.labels)
    return doc


def graph_document(g: MultiGraph) -> dict:
    doc = _document_fields(g)
    doc["edges"] = np.stack((g.tails, g.heads), axis=1).tolist()
    return doc


# -- BFS metrics --------------------------------------------------------


#: A one-source push below |V| / _CLAIM_RATIO arcs finds its new vertices
#: through `claim`, at a cost in its own size; from there on a level
#: sets flags, or moves fiber masks on a deck of _SHIFT_DECK_FLOOR or
#: more, and scans all |V| entries, which also sorts the next frontier.
#: On the tower level 4, 16 and 64 ran alike when its large levels
#: flagged; claiming on every level is about 70% slower there, and
#: flagging on every level makes the 32,768 levels of the 65,536-cycle
#: take about 6 s instead of under 1 s.
_CLAIM_RATIO = 16

#: A cover level at or above the claim bound moves per-fiber frontier
#: masks by deck shifts (`_DeckShifts`) instead of flagging, once the deck
#: has at least this many ranks: a shift level makes a few ufunc calls
#: per base arc, so small decks lose.  One row, best of 15, process CPU
#: on 2 vCPUs, shifts against bool flags: Petersen at m = 3 (deck 729)
#: 1.56 against 1.20 ms, `complete:6` at m = 2 (1,024) 1.11 against 0.77
#: ms, k4 at m = 13 (2,197) 1.53 against 1.50 ms, k4 at m = 16 (4,096)
#: 2.34 against 2.37 ms, Petersen at m = 4 (4,096) 3.47 against 4.41 ms,
#: Petersen at m = 5 (15,625) 9.9 against 17.1 ms, and the 531,441-vertex
#: tower level (59,049) 25 against 72 ms.
_SHIFT_DECK_FLOOR = 4096


def bfs_distance_matrix(g: MultiGraph, sources: Sequence[int]) -> np.ndarray:
    """Shortest-path distances from each source; shape (len(sources), |V|).

    int64, with UNREACHABLE where no path exists.  Row i belongs to
    sources[i]; sources may repeat, and one out of range raises IndexError.

    Each source runs its own level-synchronous BFS, `_one_source_row`,
    over the CSR arcs of g's base.  A plain graph is its own base: the
    arcs at a frontier vertex reach their CSR heads.  A cover's graph
    (`_lift` set to (base, deck)) takes its arcs at vertex x = v * deck +
    k from the base's CSR arcs at v, through the targets of its signed-arc
    table (`MultiGraph.arc_heads`): base arc 2e + b is table arc 2 * (e *
    deck + k) + b = offset + 2x, with offset = 2 * deck * (e - v) + b.
    The arc's source is x by the slot formula, so only targets are read.
    A cover with at least _SHIFT_DECK_FLOOR ranks per fiber also expands
    its large levels by the deck moves of its base arcs (`_DeckShifts`,
    from the m and cotree strides that `build_zm_cover` leaves in
    `_moves`).
    The offsets, shifts and scratch are set up once per call, in the
    table's width.
    """
    sources = list(sources)
    n = g.vertex_count
    for s in sources:
        if not 0 <= s < n:
            raise IndexError(f"source {s} out of range")
    out = np.full((len(sources), n), UNREACHABLE, dtype=np.int64)
    if not sources:
        return out
    base, deck = g._lift or (g, 1)
    indptr, edge, sign, head = base.arcs()
    degree = np.diff(indptr)
    shifts = None
    if g._lift is None:
        dst, offset = head, None
    else:
        dst = g.arc_heads()
        owner = np.repeat(np.arange(base.vertex_count), degree)
        offset = (2 * deck * (edge - owner) + (sign < 0)).astype(dst.dtype)
        if deck >= _SHIFT_DECK_FLOOR:
            shifts = _DeckShifts(base, deck, *g._moves)
    # scratch for the whole call, reused by every source
    claim = np.empty(n, dtype=dst.dtype)
    for source, row in zip(sources, out):
        _one_source_row(indptr, degree, offset, dst, deck, shifts, source,
                        row, claim)
    return out


def _one_source_row(indptr, degree, offset, dst, deck, shifts, source, row,
                    claim):
    """BFS from one source into row (all UNREACHABLE on entry).

    The frontier is a list of vertices.  A level with fewer than |V| /
    _CLAIM_RATIO arcs pushes: it takes the base arcs at its frontier's
    fibers and reads their targets, dst[arc] on a plain graph and
    dst[offset[arc] + 2x] through a cover's table (see
    `bfs_distance_matrix`), at a cost in the frontier's size, and keeps
    each unvisited target once through one `claim` slot per target.  A
    larger level of a cover with `shifts` moves whole fibers instead
    (`_DeckShifts.step`) and scans the next frontier's mask; any other
    larger level pushes, sets a bool flag per target and scans all |V|
    flags.  Both scans leave the next frontier sorted.  No ufunc ``.at``
    merge runs.
    """
    unvisited = np.ones(row.size, dtype=bool)
    unvisited[source] = False
    flag = np.zeros(row.size, dtype=bool) if shifts is None else None
    active = np.array([source])
    frontier = None  # active's mask, after a shift level
    level = 0
    while active.size:
        row[active] = level
        level += 1
        if frontier is None:
            fiber = active if offset is None else active // deck
            active_degree = degree[fiber]
            active_arcs = int(active_degree.sum())
        else:  # active is sorted: count it per fiber
            per_fiber = np.diff(np.searchsorted(active, shifts.fiber_starts))
            active_arcs = int(per_fiber @ degree)
        if shifts is not None and active_arcs * _CLAIM_RATIO >= row.size:
            frontier = shifts.step(active, frontier, unvisited)
            active = np.flatnonzero(frontier)
            np.greater(unvisited, frontier.ravel(), out=unvisited)
            continue
        if frontier is not None:
            fiber, frontier = active // deck, None
            active_degree = degree[fiber]
        arcs = _frontier_arcs(indptr, fiber, active_degree, active_arcs)
        if offset is None:
            reached = dst[arcs]
        else:
            reached = dst[offset[arcs] + np.repeat(2 * active, active_degree)]
        if active_arcs * _CLAIM_RATIO < row.size:
            reached = reached[unvisited[reached]]
            slot = np.arange(reached.size, dtype=claim.dtype)
            claim[reached] = slot
            active = reached[claim[reached] == slot]
        else:
            flag[reached] = True
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
    flag &= unvisited
    found = np.flatnonzero(flag)
    flag[found] = False
    return found


class _DeckShifts:
    """A cover's base arcs as moves of per-fiber frontier masks.

    A mask has shape (|V(X)|, deck): row v holds the label ranks of the
    frontier's vertices over base vertex v.  Base arc v -> w over edge e
    takes (v, k) to (w, k) for a tree edge, and to (w, k') for cotree
    edge i, k' being k with its digit of stride m**i moved by the arc's
    sign mod m (`build_zm_cover`).  So one level ORs row v, moved, into
    row w for every base arc from a fiber with frontier vertices.

    A tree arc keeps the label: one row OR.  A digit move rotates every
    block of L = m * stride ranks by t = stride (+1) or (m - 1) * stride
    (-1), so at m = 2 both signs are one move.  It is two slice ORs over
    the (deck / L, L) view of the rows; where L < 64 those view rows are
    short and strided ORs slow, so it is two ORs of contiguous flat
    slices instead, each masked (`_stays`) to the ranks that stay in
    their block or to those that wrap.  The ufunc calls of a level are
    listed once per call, on views of two mask buffers that the levels
    take in turn.
    """

    def __init__(self, base: MultiGraph, deck: int, m: int,
                 stride: np.ndarray):
        indptr, edge, sign, head = base.arcs()
        owner = np.repeat(np.arange(base.vertex_count), np.diff(indptr))
        # distinct (source, target, block, rotation); t = 0 keeps the label
        arcs = dict.fromkeys(
            (v, w, m * s, 0 if s == 0 else s if d > 0 else (m - 1) * s)
            for v, w, s, d in zip(owner.tolist(), head.tolist(),
                                  stride[edge].tolist(), sign.tolist()))
        self.fiber_starts = np.arange(base.vertex_count + 1) * deck
        self._masks = tuple(np.empty((base.vertex_count, deck), dtype=bool)
                            for _ in range(2))
        scratch = np.empty(deck, dtype=bool)
        stays = {}
        self._calls = [[], []]  # per buffer that holds the frontier
        for calls, (cur, nxt) in zip(self._calls, (self._masks,
                                                   self._masks[::-1])):
            for v, w, L, t in arcs:
                src, dst = cur[v], nxt[w]
                if t == 0:
                    calls.append((v, np.bitwise_or, dst, src, dst))
                elif L >= 64:
                    src, dst = src.reshape(-1, L), dst.reshape(-1, L)
                    calls += [(v, np.bitwise_or, dst[:, t:], src[:, :L - t],
                               dst[:, t:]),
                              (v, np.bitwise_or, dst[:, :t], src[:, L - t:],
                               dst[:, :t])]
                else:
                    stay = stays.get((L, t))
                    if stay is None:
                        stay = stays[L, t] = _stays(deck, L, t)
                    wrap = deck - (L - t)
                    calls += [
                        (v, np.logical_and, src[:-t], stay[:-t], scratch[:-t]),
                        (v, np.bitwise_or, dst[t:], scratch[:-t], dst[t:]),
                        # src & ~stay
                        (v, np.greater, src[L - t:], stay[L - t:],
                         scratch[:wrap]),
                        (v, np.bitwise_or, dst[:wrap], scratch[:wrap],
                         dst[:wrap])]

    def step(self, active, frontier, unvisited):
        """The mask of the unvisited vertices one arc from the active ones.

        frontier is active's mask from the last call, or None when
        another level found active.  The result is one of the two
        buffers, valid until the next call.
        """
        if frontier is None:
            frontier = self._masks[0]
            frontier.fill(False)
            frontier.ravel()[active] = True
        which = 0 if frontier is self._masks[0] else 1
        nxt = self._masks[1 - which]
        nxt.fill(False)
        live = frontier.any(axis=1).tolist()
        for v, call, x, y, out in self._calls[which]:
            if live[v]:
                call(x, y, out=out)
        np.logical_and(nxt, unvisited.reshape(nxt.shape), out=nxt)
        return nxt


def _stays(deck: int, L: int, t: int) -> np.ndarray:
    """Per rank, True where a rotation by t within blocks of L ranks
    keeps it in its block, False where it wraps to the block's start."""
    block = np.arange(L) < L - t
    return np.tile(block, deck // L)


# -- girth --------------------------------------------------------------


def _shift(rank, stride: int, m: int, delta: int):
    """Label rank(s) `rank` with the digit of weight `stride` (m**i for
    cotree position i) moved by `delta` mod m."""
    digit = (rank // stride) % m
    return rank + ((digit + delta) % m - digit) * stride


def cycle_bound_from(g: MultiGraph, roots: Iterable[int], m: int = 1,
                     cotree: Sequence[int] = ()):
    """Least cycle bound over truncated BFS searches from the roots, on g
    or, given m and its cotree, on g's Z_m-homology cover; math.inf when
    no search closes a cycle.

    A state k * |V| + v is the vertex of g's cover over v with label rank
    k.  Crossing cotree[i] with sign s moves the digit of weight m**i by s
    mod m (`_shift`); a tree edge keeps k.  With an empty cotree the
    states are g's vertices.  Arc 2e + b crosses edge e forward (b = 0)
    or backward (b = 1), as `Walk` steps do, and a search never takes the
    reverse arc (2e + b) ^ 1 of the arc that reached a state: the other
    arc of a loop, or of an m = 2 lift of a loop, closes a cycle.  A
    non-tree arc from a state at level l to one at level l' closes a
    walk of length l + l' + 1 that holds a cycle.  The bound never
    undercuts the girth, and is exactly the girth whenever some shortest
    cycle passes through the state of a root.
    """
    n = g.vertex_count
    indptr, edge, sign, head = g.arcs()
    # lists once per call: numpy scalars cost a conversion per arc read
    code = (2 * edge + (sign < 0)).tolist()
    indptr, edge, sign, head = (a.tolist() for a in (indptr, edge, sign, head))
    weight = [0] * g.edge_count
    for i, e in enumerate(cotree):
        weight[e] = m ** i
    stride = [weight[e] for e in edge]
    best = math.inf
    for root in roots:
        dist = {root: 0}
        via = {root: -1}
        frontier = [root]
        level = 0
        while frontier and 2 * level < best:
            nxt = []
            for x in frontier:
                k, u = divmod(x, n)
                back = via[x] ^ 1
                for i in range(indptr[u], indptr[u + 1]):
                    arc = code[i]
                    if arc == back:
                        continue
                    s = stride[i]
                    y = head[i] + n * (_shift(k, s, m, sign[i]) if s else k)
                    dy = dist.get(y)
                    if dy is None:
                        dist[y] = level + 1
                        via[y] = arc
                        nxt.append(y)
                    elif level + dy + 1 < best:
                        best = level + dy + 1
            level += 1
            frontier = nxt
    return best


def girth(g: MultiGraph):
    """Length of the shortest cycle: 1 for a loop, 2 for a parallel pair,
    math.inf for forests.  One search from every vertex."""
    return cycle_bound_from(g, range(g.vertex_count))


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


def symmetric_roots(g: MultiGraph) -> list[int]:
    """The least vertex of each orbit of g's checked label automorphisms
    (`label_automorphisms`), ascending: every vertex of an unlabelled
    graph, one vertex of a Cayley graph."""
    orbits = Orbits(g.vertex_count)
    for vmap, _emap, _signs in label_automorphisms(g):
        orbits.join(vmap)
    return orbits.roots()


# -- connectivity -------------------------------------------------------


def is_connected(g: MultiGraph) -> bool:
    if g.vertex_count <= 1:
        return True
    indptr, _ae, _asg, ah = g.arcs()
    indptr, ah = indptr.tolist(), ah.tolist()
    seen = [False] * g.vertex_count
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for w in ah[indptr[u]:indptr[u + 1]]:
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
