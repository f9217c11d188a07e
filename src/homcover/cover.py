"""Z_m-homology covers of multigraphs.

Given a 2-edge-connected base graph X with a chosen maximal spanning tree,
the cover has vertex set V(X) x Z_m^r and edge set E(X) x Z_m^r, where r
is the number of cotree edges.  Tree edges join vertices inside a cloud;
the lift of cotree generator i adds one to the i-th Z_m coordinate.

Vertex (v, k) is stored at index v * m^r + rank(k) where rank is the
mixed-radix value of k, little-endian in cotree order; edge (e, k) is
stored at index e * m^r + rank(k).  `_shift` is the one rule that moves a
label digit of a rank: edge heads and deck permutations use it.

Walks are lifted over the built edges of the cover: a base walk's signed
arcs (`graph.Walk`) pick signed cover arcs from `CoverGraph.arc_ends`,
and `_lift_block` follows them for a block of walks at once.  Two base
walks from one vertex lift to the same cover endpoint exactly when their
signed edge counts agree mod m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .errors import (LengthMismatch, NotSpanningTree, NotTwoEdgeConnected,
                     PathMismatch, SizeCapExceeded, UnsupportedModulus)
from .graph import (DEFAULT_SIZE_CAP, MultiGraph, Orbits, Walk, _has_loop,
                    _least_cycle_bound, is_two_edge_connected,
                    label_automorphisms, signed_arc_counts)
from .trees import (SpanningTree, TreeCounts, _tree_from_edge_set,
                    some_spanning_tree, tree_counts)

#: Largest supported m: residues are stored as uint8 up to m = 256 and as
#: uint16 up to this bound.
MAX_M = 1 << 16


def _residue_dtype(m: int) -> np.dtype:
    """Narrowest unsigned dtype holding every residue mod m."""
    return np.dtype(np.uint8 if m <= 256 else np.uint16)


def _add_mod(a: np.ndarray, b: np.ndarray, m: int, out: np.ndarray) -> None:
    """out = (a + b) mod m for residues a, b in 0..m-1, in out's dtype.

    While 2(m - 1) fits the dtype the sum s is reduced as min(s, s - m):
    s - m wraps past s exactly when s < m.  Above that (uint8 for m in
    129..256, uint16 above m = 32,768) s itself may wrap, so m is taken
    off where a > (m - 1) - b, again exact mod 2**bits; at m = 2**bits the
    wrap is the reduction.
    """
    top = np.iinfo(out.dtype).max
    if 2 * (m - 1) <= top:
        np.add(a, b, out=out)
        np.minimum(out, out - m, out=out)
    elif m <= top:
        over = a > (m - 1) - b
        np.add(a, b, out=out)
        np.subtract(out, m, out=out, where=over)
    else:
        np.add(a, b, out=out)


def _shift(rank, stride: int, m: int, delta: int):
    """Label rank(s) `rank` with the digit of weight `stride` (m**i for
    cotree position i) moved by `delta` mod m."""
    digit = (rank // stride) % m
    return rank + ((digit + delta) % m - digit) * stride


def _shifted_ranks(deck: int, stride: int, m: int, delta: int) -> np.ndarray:
    """_shift(np.arange(deck), stride, m, delta), one pass over deck: the
    move depends only on the digit, the middle axis of a (deck / (m *
    stride), m, stride) view of the ranks."""
    digits = np.arange(m, dtype=np.int64) * stride
    move = _shift(digits, stride, m, delta) - digits
    ranks = np.arange(deck, dtype=np.int64).reshape(-1, m, stride)
    return (ranks + move[:, None]).reshape(deck)


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
        self._profiles = None
        self._arc_ends = None
        self._tree_counts = None
        self._orbit_reps = None

    # -- index bijections ------------------------------------------------

    def encode_vertex(self, v: int, label) -> int:
        return v * self.deck_size + self.rank_of(label)

    def require_vertices(self, *xs: int) -> None:
        """IndexError unless each x is in 0..|V~|-1 (no negative wrap)."""
        for x in xs:
            if not 0 <= x < self.graph.vertex_count:
                raise IndexError(f"cover vertex {x} out of range")

    def decode_vertex(self, idx: int) -> tuple[int, tuple[int, ...]]:
        self.require_vertices(idx)
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
            dtype = _residue_dtype(m)
            # chain of the deck translation by each rank, built one digit
            # at a time: digit 0 varies fastest, each new digit is the
            # outer axis and adds its multiple of the generator's loop
            deck_part = np.zeros((1, ne), dtype=dtype)
            for loop in loops % m:
                steps = ((np.arange(m)[:, None] * loop) % m).astype(dtype)
                stacked = np.empty((m,) + deck_part.shape, dtype=dtype)
                _add_mod(deck_part[None], steps[:, None], m, stacked)
                deck_part = stacked.reshape(-1, ne)
            prof = np.empty((n * self.deck_size, ne), dtype=dtype)
            for v, start in enumerate((pv % m).astype(dtype)):
                _add_mod(deck_part, start, m,
                         prof[v * self.deck_size:(v + 1) * self.deck_size])
            self._profiles = prof
        return self._profiles

    def arc_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """(source, target) of every signed cover arc, read off the edge
        arrays of self.graph; built on first use.

        Arc 2i + b belongs to slot i = e * deck + k of base edge e and
        label rank k.  Arc 2i follows cover edge i forward; arc 2i + 1
        follows backward the edge of block e whose head has rank k, found
        by an inverse head index of the block.
        """
        if self._arc_ends is None:
            g = self.graph
            ids = np.arange(g.edge_count, dtype=np.int64)
            inv = ids.copy()
            inv[ids - ids % self.deck_size + g.heads % self.deck_size] = ids
            src = np.stack([g.tails, g.heads[inv]], axis=1).ravel()
            dst = np.stack([g.heads, g.tails[inv]], axis=1).ravel()
            self._arc_ends = src, dst
        return self._arc_ends

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

    def orbit_reps(self) -> np.ndarray:
        """Per base vertex v, the cover vertex (u, 0) that represents the
        orbit holding the fiber over v; int64, shape (|V(X)|,).

        The group is the one that the deck translations and the checked
        lifts of the base's label automorphisms generate (`_checked_lift`);
        u is the least base vertex of the orbit.  Both kinds keep d and
        d_Q, so the (d, d_Q) pairs from any source are those from its
        representative.  On an unlabelled base every fiber is an orbit.
        """
        if self._orbit_reps is None:
            orbits = Orbits(self.base.vertex_count)
            for auto in label_automorphisms(self.base):
                if orbits.find(int(auto[0][0])) == 0:
                    continue  # already joined to the fiber over 0
                if _checked_lift(self, *auto) is not None:
                    orbits.join(auto[0])
            self._orbit_reps = orbits.least() * self.deck_size
        return self._orbit_reps

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
            _shifted_ranks(deck, stride[e], m, 1) if e in stride else ranks)
    cover_graph = MultiGraph.from_arrays(n_cover, tails, heads)
    edge_stride = np.zeros(g.edge_count, dtype=np.int64)
    edge_stride[list(stride)] = list(stride.values())
    cover_graph._arc_source = partial(_lifted_arcs, g, m, deck, edge_stride)
    return CoverGraph(g, m, tree, cover_graph)


def _lifted_arcs(g: MultiGraph, m: int, deck: int, stride: np.ndarray):
    """The cover's CSR arcs (`MultiGraph.arcs`), lifted from g's arcs.

    stride[e] is the label weight of cotree edge e and 0 on tree edges.
    The arcs at (v, k) are the lifts of v's arcs, in the same order: where
    v is the tail of e the arc takes edge e * deck + k to the head's
    vertex at rank _shift(k, +1); where v is the head it takes edge
    e * deck + r to the tail's vertex at rank r = _shift(k, -1) (no shift
    on a tree edge).  A block of cover edges lies over one base edge, so
    these are in edge-id order, except at a base loop, whose backward lift
    e * deck + _shift(k, -1) comes first where k's digit is nonzero.

    Arc a of v at rank k sits at start[a] + k * deg(v), with start[a] =
    indptr_X[v] * deck + (a - indptr_X[v]); arcs that share a stride,
    direction and degree are written in one pass through `_strided_rows`.
    """
    b_indptr, b_edge, b_sign, b_head = g.arcs()
    deg = np.diff(b_indptr)
    indptr = np.zeros(g.vertex_count * deck + 1, dtype=np.int64)
    np.cumsum(np.repeat(deg, deck), out=indptr[1:])
    step = np.repeat(deg, deg)
    start = (b_indptr[:-1].repeat(deg) * (deck - 1)
             + np.arange(b_edge.size, dtype=np.int64))
    arc_stride = stride[b_edge]
    move = np.where(arc_stride > 0, b_sign, 0)
    edge = np.empty(b_edge.size * deck, dtype=np.int64)
    sign = np.empty(b_edge.size * deck, dtype=np.int8)
    head = np.empty(b_edge.size * deck, dtype=np.int64)
    ranks = np.arange(deck, dtype=np.int64)
    # a sorted set, not np.unique: that imports numpy.ma
    for s, d, k in sorted(set(zip(arc_stride.tolist(), move.tolist(),
                                  step.tolist()))):
        sel = np.flatnonzero((arc_stride == s) & (move == d) & (step == k))
        to = _shifted_ranks(deck, s, m, d) if d else ranks
        at = start[sel]
        _strided_rows(edge, k, deck)[at] = (
            b_edge[sel, None] * deck + (to if d < 0 else ranks))
        _strided_rows(head, k, deck)[at] = b_head[sel, None] * deck + to
        _strided_rows(sign, k, deck)[at] = b_sign[sel, None]
    # a base loop's forward lift now sits first, as its forward arc does
    # at v; swap where the backward lift's edge id is the smaller
    loop_arcs = (g.tails[b_edge] == g.heads[b_edge]) & (b_sign > 0)
    for a in np.flatnonzero(loop_arcs).tolist():
        pos = start[a] + step[a] * np.flatnonzero(ranks // arc_stride[a] % m)
        for arr in (edge, sign, head):
            arr[pos], arr[pos + 1] = arr[pos + 1], arr[pos]
    return indptr, edge, sign, head


def _strided_rows(a: np.ndarray, step: int, count: int) -> np.ndarray:
    """Writable view w of the 1-d array a with w[i, k] = a[i + step * k]
    for k < count: row i is the run of count entries from i on, step
    apart."""
    return np.lib.stride_tricks.as_strided(
        a, shape=(a.size - step * (count - 1), count),
        strides=(a.strides[0], step * a.strides[0]))


def _checked_lift(c: CoverGraph, vmap: np.ndarray, emap: np.ndarray,
                  signs: np.ndarray):
    """Vertex map of the lift of a base automorphism if it is an
    automorphism of c.graph, else None.

    The automorphism takes base edge e to emap[e], reversed where
    signs[e] < 0, so it acts on profiles by the signed column permutation
    P: (P p)[emap[e]] = signs[e] * p[e].  The lift f takes the basepoint
    to (vmap[0], 0) and x to the vertex over vmap[v_x] whose label digits
    are the cotree columns of P(prof[x]).  It is accepted only if f is a
    bijection and takes every cover edge over e to the cover edge over
    emap[e] with endpoints (f(t), f(h)), swapped where signs[e] < 0;
    checked one base-edge block at a time.  P only permutes and signs the
    edge terms of d_Q, so an accepted f keeps d and d_Q.
    """
    deck, m = c.deck_size, c.m
    inverse = np.empty_like(emap)
    inverse[emap] = np.arange(emap.size)
    src = inverse[list(c.cotree)]  # the base edge P moves to cotree column i
    neg = signs[src] < 0
    weights = m ** np.arange(c.r, dtype=np.int64)
    prof = c.base_profiles()
    f = np.empty(c.graph.vertex_count, dtype=np.int64)
    for v in range(c.base.vertex_count):
        digits = prof[v * deck:(v + 1) * deck, src].astype(np.int64)
        digits[:, neg] = (-digits[:, neg]) % m
        f[v * deck:(v + 1) * deck] = vmap[v] * deck + digits @ weights
    hit = np.zeros(f.size, dtype=bool)
    hit[f] = True
    if not hit.all():
        return None
    tails, heads = c.graph.tails, c.graph.heads
    for e in range(c.base.edge_count):
        block = slice(e * deck, (e + 1) * deck)
        ft, fh = f[tails[block]], f[heads[block]]
        if signs[e] < 0:
            ft, fh = fh, ft
        # the edge over emap[e] with tail ft, in the construction layout
        rank = ft % deck
        seen = np.zeros(deck, dtype=bool)
        seen[rank] = True
        image = emap[e] * deck + rank
        if not (seen.all() and np.array_equal(tails[image], ft)
                and np.array_equal(heads[image], fh)):
            return None
    return f


def cover_girth(c: CoverGraph):
    """Girth of the cover from one BFS root (v, 0) per orbit.

    The orbit group (`CoverGraph.orbit_reps`) acts by automorphisms and
    moves every vertex into its orbit's representative, so some shortest
    cycle passes through a representative; the result equals
    girth(c.graph) exactly.

    A cover has no loop: a tree edge joins two fibers and a cotree edge
    moves a label digit.  It has a parallel pair exactly when m = 2 and
    the base has a loop, whose two lifts at each vertex join the same
    two labels.  Both are read off the base, not the cover's edges.
    """
    if c.m == 2 and _has_loop(c.base):
        return 2
    reps = c.orbit_reps()
    # a representative (u, 0) is the entry of its own fiber u
    return _least_cycle_bound(
        c.graph, reps[reps == np.arange(reps.size) * c.deck_size].tolist())


# -- covering projection and lifting -------------------------------------


def project_vertex(c: CoverGraph, x: int) -> int:
    return c.decode_vertex(x)[0]


def project_edge(c: CoverGraph, e: int) -> int:
    return c.decode_edge(e)[0]


def _lift_block(c: CoverGraph, starts, walks):
    """Lift signed-arc walks from cover vertices `starts`, one numpy pass
    per step over the block of walks.

    Returns (end vertices, signed cover arcs): the arcs of all steps,
    walk after walk in input order.  A step along base arc a from cover
    vertex x takes signed cover arc 2 * ((a >> 1) * deck + x % deck) +
    (a & 1) (`CoverGraph.arc_ends`); PathMismatch if x is not that arc's
    source, IndexError for a base arc out of range.  The walks still
    active at step j are the longest ones, a prefix of the block in
    longest-first order.
    """
    src, dst = c.arc_ends()
    deck = c.deck_size
    lengths = np.fromiter(map(len, walks), np.int64, len(walks))
    order = np.argsort(-lengths, kind="stable")
    arcs = np.fromiter(chain.from_iterable(walks), np.int64,
                       int(lengths.sum()))
    if arcs.size and not (0 <= arcs.min()
                          and arcs.max() < 2 * c.base.edge_count):
        raise IndexError("base arc out of range")
    # the slot-independent part of each step's cover arc id
    arcs = (arcs >> 1) * (2 * deck) + (arcs & 1)
    offsets = (np.cumsum(lengths) - lengths)[order]
    active = np.searchsorted(-lengths[order],
                             -np.arange(lengths.max(initial=0)))
    cur = np.asarray(starts, dtype=np.int64)[order]
    for j, n in enumerate(active.tolist()):
        x = cur[:n]
        at = offsets[:n] + j
        arc = arcs[at] + 2 * (x % deck)
        if not np.array_equal(src[arc], x):
            raise PathMismatch(f"step {j} of a lifted walk does not start "
                               f"at its cover vertex")
        arcs[at] = arc
        cur[:n] = dst[arc]
    ends = np.empty_like(cur)
    ends[order] = cur
    return ends, arcs


def lift_path(c: CoverGraph, base_walk: Walk, start: int) -> tuple[int, list[int]]:
    """Lift a base walk to the cover starting at `start`.

    Returns (endpoint, cover edge ids of the lift).  The start vertex must
    lie over the walk's origin.  The lift is `_lift_block` on a block of
    one; the cover edge of a step is e * deck + the rank of its tail-side
    vertex, the current vertex on a forward step and the next one on a
    backward step.
    """
    c.require_vertices(start)
    deck = c.deck_size
    if start // deck != base_walk.start:
        raise PathMismatch(f"start vertex lies over {start // deck}, walk "
                           f"begins at {base_walk.start}")
    ends, arcs = _lift_block(c, [start], [base_walk.steps])
    src, dst = c.arc_ends()
    tail_side = np.where(arcs & 1, dst[arcs], src[arcs])
    edges = (arcs >> 1) // deck * deck + tail_side % deck
    return int(ends[0]), edges.tolist()


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
    return signed_arc_counts(w.steps, g.edge_count)


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
    c.require_vertices(x, y)
    prof = c.base_profiles()
    counts = (prof[y].astype(np.int64) - prof[x].astype(np.int64)) % c.m
    return EdgeChainModM(tuple(int(v) for v in counts), c.m)
