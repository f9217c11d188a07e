"""Z_m-homology covers of multigraphs.

Given a 2-edge-connected base graph X with a chosen maximal spanning tree,
the cover has vertex set V(X) x Z_m^r and edge set E(X) x Z_m^r, where r
is the number of cotree edges.  Tree edges join vertices inside a cloud;
the lift of cotree generator i adds one to the i-th Z_m coordinate.

Vertex (v, k) is stored at index v * m^r + rank(k) where rank is the
mixed-radix value of k, little-endian in cotree order; edge (e, k) is
stored at index e * m^r + rank(k).  `_shift` is the one rule that moves a
label digit of a rank: edge heads, deck permutations and lifts all use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (LengthMismatch, NotSpanningTree, NotTwoEdgeConnected,
                     PathMismatch, SizeCapExceeded, UnsupportedModulus)
from .graph import (DEFAULT_SIZE_CAP, MultiGraph, Walk, _girth_from_roots,
                    is_two_edge_connected)
from .trees import (SpanningTree, TreeCounts, _tree_from_edge_set,
                    some_spanning_tree, tree_counts)

#: Largest supported m: residues are stored as uint8 up to m = 256 and as
#: uint16 up to this bound.
MAX_M = 1 << 16


def _residue_dtype(m: int) -> np.dtype:
    """Narrowest unsigned dtype holding every residue mod m."""
    return np.dtype(np.uint8 if m <= 256 else np.uint16)


def _shift(rank, stride: int, m: int, delta: int):
    """Label rank(s) `rank` with the digit of weight `stride` (m**i for
    cotree position i) moved by `delta` mod m."""
    digit = (rank // stride) % m
    return rank + ((digit + delta) % m - digit) * stride


@dataclass(frozen=True)
class EdgeChainModM:
    """Element of Z_m^{E(X)}: one residue per base edge."""

    coeffs: tuple[int, ...]
    m: int


@dataclass(frozen=True)
class VertexChainModM:
    coeffs: tuple[int, ...]
    m: int


class CoverGraph:
    """The Z_m-homology cover of a base multigraph.

    Immutable; the `graph` attribute is the cover as a plain MultiGraph.
    """

    def __init__(self, base: MultiGraph, m: int, tree0: SpanningTree,
                 graph: MultiGraph):
        self.base = base
        self.m = m
        self.tree0 = tree0
        self.cotree = tree0.cotree
        self.r = len(self.cotree)
        self.deck_size = m ** self.r
        self.graph = graph
        self.basepoint = 0  # vertex (0, 0)
        self._cotree_stride = {e: m ** i for i, e in enumerate(self.cotree)}
        self._profiles = None
        self._tree_counts = None

    # -- index bijections ------------------------------------------------

    def encode_vertex(self, v: int, label) -> int:
        return v * self.deck_size + self.rank_of(label)

    def decode_vertex(self, idx: int) -> tuple[int, tuple[int, ...]]:
        if not 0 <= idx < self.graph.vertex_count:
            raise IndexError(f"cover vertex {idx} out of range")
        v, rank = divmod(idx, self.deck_size)
        return v, self.label_of(rank)

    def encode_edge(self, e: int, label) -> int:
        return e * self.deck_size + self.rank_of(label)

    def decode_edge(self, idx: int) -> tuple[int, tuple[int, ...]]:
        if not 0 <= idx < self.graph.edge_count:
            raise IndexError(f"cover edge {idx} out of range")
        e, rank = divmod(idx, self.deck_size)
        return e, self.label_of(rank)

    def rank_of(self, label) -> int:
        label = tuple(int(x) % self.m for x in label)
        if len(label) != self.r:
            raise LengthMismatch(f"label length {len(label)} != r = {self.r}")
        return sum(x * self.m ** i for i, x in enumerate(label))

    def label_of(self, rank: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.r):
            rank, d = divmod(rank, self.m)
            out.append(d)
        return tuple(out)

    # -- basepoint traversal profiles -------------------------------------

    def base_profiles(self) -> np.ndarray:
        """Per-vertex signed traversal counts mod m from the basepoint.

        Row x is the mod-m chain of any cover path from the basepoint to
        x, one residue per base edge; shape (|V~|, |E(X)|), dtype uint8
        for m <= 256 and uint16 above.
        Well-defined because any two such paths differ by a loop whose
        projection has trivial mod-m homology class.
        """
        if self._profiles is None:
            g = self.base
            m = self.m
            n = g.vertex_count
            ne = g.edge_count
            # chain of the tree path from vertex 0 to each base vertex
            pv = np.zeros((n, ne), dtype=np.int64)
            for v in self.tree0.depth_order():
                par = self.tree0.parent[v]
                if par is None:
                    continue
                p, e = par
                t, _h = g.endpoints(e)
                pv[v] = pv[p]
                pv[v, e] += 1 if t == p else -1
            # chain of the fundamental loop of each cotree generator
            loops = np.zeros((self.r, ne), dtype=np.int64)
            for i, e in enumerate(self.cotree):
                t, h = g.endpoints(e)
                loops[i] = pv[t] - pv[h]
                loops[i, e] += 1
            ranks = np.arange(self.deck_size, dtype=np.int64)
            digits = np.empty((self.deck_size, self.r), dtype=np.int64)
            for i in range(self.r):
                digits[:, i] = (ranks // m ** i) % m
            deck_part = (digits @ (loops % m)) % m
            prof = np.empty((n * self.deck_size, ne), dtype=_residue_dtype(m))
            for v in range(n):
                block = (pv[v][None, :] + deck_part) % m
                prof[v * self.deck_size:(v + 1) * self.deck_size] = block
            self._profiles = prof
        return self._profiles

    def tree_counts(self) -> TreeCounts:
        """tree_counts(base), computed once per cover."""
        if self._tree_counts is None:
            self._tree_counts = tree_counts(self.base)
        return self._tree_counts

    # -- deck group ----------------------------------------------------------

    def deck_permutation(self, k: int) -> np.ndarray:
        """Fiber index map of the deck translation by label rank k.

        perm[rank(l)] = rank(l - k).  Translations are automorphisms that
        keep profile differences, so d and d_Q rows from (v, k) are the
        rows from (v, 0) gathered through perm within each fiber:
        ``row.reshape(|V(X)|, deck_size)[:, perm].ravel()``.
        """
        perm = np.arange(self.deck_size, dtype=np.int64)
        for i, shift in enumerate(self.label_of(k)):
            perm = _shift(perm, self.m ** i, self.m, -shift)
        return perm

    def __repr__(self):
        return (f"CoverGraph(base=|V|={self.base.vertex_count},"
                f"|E|={self.base.edge_count}, m={self.m}, r={self.r})")


def build_zm_cover(g: MultiGraph, m: int, tree: SpanningTree | None = None,
                   size_cap: int = DEFAULT_SIZE_CAP) -> CoverGraph:
    """Construct the Z_m-homology cover of g.

    g must be connected and 2-edge-connected (so the cover is well-defined
    and d_Q is a metric on it).  The optional tree fixes the construction
    layout; the cover's isomorphism type does not depend on it.
    """
    if not 2 <= m <= MAX_M:
        raise UnsupportedModulus(f"m must be in 2..{MAX_M}, got {m}")
    if not is_two_edge_connected(g):
        raise NotTwoEdgeConnected("base graph must be connected and bridgeless")
    if tree is None:
        tree = some_spanning_tree(g)
    else:
        _tree_from_edge_set(g, tree.tree_edges)  # validates against g
    r = len(tree.cotree)
    deck = m ** r
    n_cover = g.vertex_count * deck
    if n_cover > size_cap:
        raise SizeCapExceeded(
            f"cover would have {n_cover} vertices, cap is {size_cap}")
    stride = {e: m ** i for i, e in enumerate(tree.cotree)}
    ranks = np.arange(deck, dtype=np.int64)
    tails = np.empty(g.edge_count * deck, dtype=np.int64)
    heads = np.empty(g.edge_count * deck, dtype=np.int64)
    for e in range(g.edge_count):
        t, h = g.endpoints(e)
        lo = e * deck
        tails[lo:lo + deck] = t * deck + ranks
        heads[lo:lo + deck] = h * deck + (
            _shift(ranks, stride[e], m, 1) if e in stride else ranks)
    cover_graph = MultiGraph.from_arrays(n_cover, tails, heads)
    return CoverGraph(g, m, tree, cover_graph)


def cover_girth(c: CoverGraph):
    """Girth of the cover from one BFS root (v, 0) per fiber.

    The deck group acts transitively on each fiber by automorphisms, so
    some shortest cycle passes through a vertex (v, 0); the result equals
    girth(c.graph) exactly.
    """
    return _girth_from_roots(c.graph,
                             range(0, c.graph.vertex_count, c.deck_size))


# -- covering projection and lifting -------------------------------------


def project_vertex(c: CoverGraph, x: int) -> int:
    return c.decode_vertex(x)[0]


def project_edge(c: CoverGraph, e: int) -> int:
    return c.decode_edge(e)[0]


def lift_path(c: CoverGraph, base_walk: Walk, start: int) -> tuple[int, list[int]]:
    """Lift a base walk to the cover starting at `start`.

    Returns (endpoint, cover edge ids of the lift).  The start vertex must
    lie over the walk's origin.  The lift carries the current label rank.
    """
    if not 0 <= start < c.graph.vertex_count:
        raise IndexError(f"cover vertex {start} out of range")
    deck = c.deck_size
    v, rank = divmod(int(start), deck)
    if v != base_walk.start:
        raise PathMismatch(
            f"start vertex lies over {v}, walk begins at {base_walk.start}")
    verts = base_walk.vertices(c.base)  # validates contiguity
    edges = []
    for e, d in base_walk.steps:
        stride = c._cotree_stride.get(e)
        if stride is not None and d == -1:
            rank = _shift(rank, stride, c.m, -1)
        edges.append(e * deck + rank)
        if stride is not None and d == 1:
            rank = _shift(rank, stride, c.m, 1)
    return verts[-1] * deck + rank, edges


# -- clouds ---------------------------------------------------------------


def cloud_map(c: CoverGraph, tree: SpanningTree | None = None) -> np.ndarray:
    """Cloud label of every cover vertex with respect to a base tree.

    Labels are signed counts mod m of the tree's cotree edges along cover
    paths from the basepoint, i.e. the cotree columns of base_profiles;
    shape (|V~|, r), with the dtype of base_profiles.  The result is a
    fresh array.  For the construction tree this reproduces the layout
    labels.
    """
    if tree is None:
        tree = c.tree0
    else:
        got = _tree_from_edge_set(c.base, tree.tree_edges)
        if got.cotree != tree.cotree:
            raise NotSpanningTree("inconsistent cotree ordering")
    return c.base_profiles()[:, list(tree.cotree)]


# -- chains, congruence, boundary ----------------------------------------


def signed_edge_counts(g: MultiGraph, w: Walk) -> np.ndarray:
    """Integer signed traversal counts of a walk, one per edge of g."""
    w.vertices(g)  # validate
    counts = np.zeros(g.edge_count, dtype=np.int64)
    for e, d in w.steps:
        counts[e] += d
    return counts


def chain_mod_m(g: MultiGraph, w: Walk, m: int) -> EdgeChainModM:
    counts = signed_edge_counts(g, w) % m
    return EdgeChainModM(tuple(int(x) for x in counts), m)


def boundary_mod_m(g: MultiGraph, chain: EdgeChainModM, m: int) -> VertexChainModM:
    """Boundary operator: sum of alpha_e (delta_head - delta_tail) mod m."""
    if len(chain.coeffs) != g.edge_count:
        raise LengthMismatch(
            f"chain length {len(chain.coeffs)} != |E| = {g.edge_count}")
    out = [0] * g.vertex_count
    for e, a in enumerate(chain.coeffs):
        t, h = g.endpoints(e)
        out[h] = (out[h] + a) % m
        out[t] = (out[t] - a) % m
    return VertexChainModM(tuple(out), m)


def is_m_congruent(g: MultiGraph, w1: Walk, w2: Walk, m: int) -> bool:
    """True iff the walks share endpoints and their signed edge counts
    agree mod m."""
    from .errors import EndpointMismatch
    if w1.start != w2.start or w1.end(g) != w2.end(g):
        raise EndpointMismatch("walks must share both endpoints")
    c1 = signed_edge_counts(g, w1)
    c2 = signed_edge_counts(g, w2)
    return bool(np.all((c1 - c2) % m == 0))


def has_m_repeated_edge(g: MultiGraph, w: Walk, m: int) -> bool:
    """True iff some edge has a nonzero signed count divisible by m."""
    counts = signed_edge_counts(g, w)
    return bool(np.any((counts != 0) & (counts % m == 0)))


# -- traversal profiles ----------------------------------------------------


def phi_profile(c: CoverGraph, x: int, y: int) -> EdgeChainModM:
    """Signed mod-m traversal counts of base-edge lifts along a cover
    path from x to y.

    Values are canonical residues in 0..m-1, the row difference
    (base_profiles()[y] - base_profiles()[x]) mod m; the value is
    independent of the chosen path.  The direction-free traversal cost of
    an edge with residue z is min(z, m - z).
    """
    n = c.graph.vertex_count
    if not 0 <= x < n or not 0 <= y < n:
        raise IndexError("cover vertex out of range")
    prof = c.base_profiles()
    counts = (prof[y].astype(np.int64) - prof[x].astype(np.int64)) % c.m
    return EdgeChainModM(tuple(int(v) for v in counts), c.m)
