"""Z_m-homology covers of multigraphs.

Given a 2-edge-connected base graph X with a chosen maximal spanning tree,
the cover has vertex set V(X) x Z_m^r and edge set E(X) x Z_m^r, where r
is the number of cotree edges.  Tree edges join vertices inside a cloud;
the lift of cotree generator i adds one to the i-th Z_m coordinate.

Vertex (v, k) is stored at index v * m^r + rank(k) where rank is the
mixed-radix value of k, little-endian in cotree order; edge (e, k) is
stored at index e * m^r + rank(k).  `graph._shift` is the one rule that
moves a label digit of a rank, and the edge heads and the girth search
(`cover_girth`) use it; a deck permutation moves every digit at once, as
an outer sum of per-digit moves.

`build_zm_cover` writes one arc table, the targets of the signed-arc
table of the cover's graph (`MultiGraph.arc_heads`), in int32 while the
ids fit; the graph's heads are its forward arcs, a view of the table.  An
arc's source is not stored: it is the base arc's source at the slot's
rank, and the graph's tails are derived from that formula when read.
Walks are lifted through the table: a base walk's signed arcs
(`graph.Walk`) pick signed cover arcs, and `_lift_block` follows them
for a block of walks at once.  Two base walks from one vertex lift to
the same cover endpoint exactly when their signed edge counts agree mod
m.  BFS rows lift the base's CSR arcs through the same table, and on the
large levels of a large deck they move whole fibers by the same digit
moves instead:
`build_zm_cover` sets the graph's `_lift` to (base, deck) and its
`_moves` to (m, each base edge's cotree stride m**i, 0 for a tree edge)
for `graph.bfs_distance_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (LengthMismatch, NotSpanningTree, NotTwoEdgeConnected,
                     PathMismatch, SizeCapExceeded, UnsupportedModulus)
from .graph import (DEFAULT_SIZE_CAP, MultiGraph, Orbits, Walk, _index_dtype,
                    _is_automorphism, _shift, cycle_bound_from,
                    is_two_edge_connected, label_automorphisms,
                    signed_arc_counts, symmetric_roots)
from .trees import (SpanningTree, TreeCounts, _bareiss_det,
                    _tree_from_edge_set, some_spanning_tree, tree_counts)

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


def _digit_moves(stride: int, m: int) -> np.ndarray:
    """Per value of the digit of weight `stride`, the change of a rank when
    that digit moves by +1 mod m (`graph._shift`): stride below digit m -
    1, -(m - 1) * stride at it; int64, shape (m,)."""
    digits = np.arange(m, dtype=np.int64) * stride
    return _shift(digits, stride, m, 1) - digits


def _digit_move(stride: int, m: int, width: int) -> np.ndarray:
    """Per rank of a block of `width` ranks (a multiple of m * stride),
    its change when its digit of weight `stride` moves by +1 mod m
    (`_digit_moves`); int64, shape (width,)."""
    return np.tile(np.repeat(_digit_moves(stride, m), stride),
                   width // (m * stride))


#: Bytes of the profile table that `CoverGraph.base_profiles` writes per
#: block, and the longest row it sums at once.
_TABLE_BLOCK = 1 << 18
_ROW_BYTES = 1 << 12


@dataclass(frozen=True)
class TreeSteps:
    """The spanning-tree factor of the traversal profiles.

    Per base vertex v, int64 arrays of shape (|V(X)|,): parent[v], the
    tree edge edge[v] that joins the parent to v, and step[v], +1 where
    that edge runs from the parent to v and -1 where it runs back (-1,
    -1 and 0 at the root, vertex 0).  So the chain of v's tree path from
    the root is its parent's plus step[v] on column edge[v].  pre[v] is
    v's place in a depth-first preorder from the root and end[v] is
    pre[v] plus the size of v's subtree, so u lies on v's path exactly
    when pre[u] <= pre[v] < end[u].
    """

    parent: np.ndarray
    edge: np.ndarray
    step: np.ndarray
    pre: np.ndarray
    end: np.ndarray


def _tree_steps(g: MultiGraph, tree: SpanningTree) -> TreeSteps:
    """The `TreeSteps` of a spanning tree of g, one pass over its parent
    table and one depth-first walk."""
    n = g.vertex_count
    tails = g.tails.tolist()
    parent, edge, step = [-1] * n, [-1] * n, [0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for v, pe in enumerate(tree.parent):
        if pe is not None:
            p, e = pe
            parent[v], edge[v] = p, e
            step[v] = 1 if tails[e] == p else -1
            children[p].append(v)
    order, stack = [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack += children[v]
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    pre = np.empty(n, dtype=np.int64)
    pre[order] = np.arange(n)
    return TreeSteps(np.array(parent, dtype=np.int64),
                     np.array(edge, dtype=np.int64),
                     np.array(step, dtype=np.int64), pre,
                     pre + np.array(size, dtype=np.int64))


def _deck_part(c: CoverGraph) -> np.ndarray:
    """`CoverGraph.deck_profiles`, built digit by digit: rank j * rows + k
    is rank k plus j times the next cotree edge's fundamental loop."""
    g, m, deck, r = c.base, c.m, c.deck_size, c.r
    ne = g.edge_count
    cotree = np.array(c.cotree, dtype=np.int64)
    # the fundamental cycle of cotree edge e = (t, h): e, then h up to the
    # root and the root down to t
    ends = c._tree_chains(np.concatenate([g.tails[cotree], g.heads[cotree]]))
    loops = ends[:r].astype(np.int64) - ends[r:]
    loops[np.arange(r), cotree] += 1
    dtype = _residue_dtype(m)
    prof = np.empty((deck, ne), dtype=dtype)
    prof[0] = 0
    rows = 1  # prof[:rows] is the deck part of the digits so far
    for loop in loops % m:
        steps = (np.arange(m)[:, None] * loop % m).astype(dtype)
        _add_mod(prof[None, :rows], steps[1:, None], m,
                 prof[rows:m * rows].reshape(m - 1, rows, ne))
        rows *= m
    return prof


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
        self._deck = None
        self._tree = None
        self._profiles = None
        self._tree_counts = None
        self._orbit_reps = None
        self._formula = None

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

    def deck_profiles(self) -> np.ndarray:
        """The deck part of the traversal profiles: row k is the profile of
        (0, k), the chain of the deck translation by rank k; shape
        (deck, |E(X)|) in the residue dtype, built once per cover.

        Built one digit at a time: digit 0 varies fastest, and each new
        digit is the outer axis and adds its multiple of its cotree edge's
        fundamental loop, about deck * m / (m - 1) row additions.
        """
        if self._deck is None:
            self._deck = _deck_part(self)
        return self._deck

    def tree_steps(self) -> TreeSteps:
        """The spanning-tree part of the traversal profiles (`TreeSteps`),
        built once per cover."""
        if self._tree is None:
            self._tree = _tree_steps(self.base, self.tree0)
        return self._tree

    def profile_row(self, x: int) -> np.ndarray:
        """Row x of `base_profiles`, read from its two factors: the deck
        row of x's rank plus the chain of its fiber's tree path, mod m.
        A fresh array; O(|V(X)| + |E(X)|), with no table built."""
        self.require_vertices(x)
        v, k = divmod(x, self.deck_size)
        row = np.empty(self.base.edge_count, dtype=_residue_dtype(self.m))
        _add_mod(self.deck_profiles()[k], self._tree_chains([v])[0], self.m,
                 row)
        return row

    def _tree_chains(self, vs, cols=None) -> np.ndarray:
        """The chains of the tree paths from the root to the base vertices
        vs, restricted to the base edges cols (every edge when None):
        shape (len(vs), len(cols)), residues mod m.

        A path crosses each tree edge at most once, so entry (v, e) is
        the step of the tree edge e where e leads to a vertex u on v's
        path, pre[u] <= pre[v] < end[u] (`TreeSteps`), and 0 elsewhere;
        the temporaries are a few booleans per entry.
        """
        tree = self.tree_steps()
        below = np.zeros(self.base.edge_count, dtype=np.int64)
        # the vertex each tree edge leads to; off the tree, the root, whose
        # step is 0
        below[tree.edge[1:]] = np.arange(1, self.base.vertex_count)
        u = below if cols is None else below[np.asarray(cols, dtype=np.int64)]
        at = tree.pre[np.asarray(vs, dtype=np.int64)][:, None]
        on_path = (tree.pre[u] <= at) & (at < tree.end[u])
        return on_path * (tree.step[u] % self.m).astype(_residue_dtype(self.m))

    def base_profiles(self) -> np.ndarray:
        """Per-vertex signed traversal counts mod m from the basepoint.

        Row x is the mod-m chain of any cover path from the basepoint to
        x, one residue per base edge; shape (|V~|, |E(X)|), dtype uint8
        for m <= 256 and uint16 above.
        Well-defined because any two such paths differ by a loop whose
        projection has trivial mod-m homology class.

        The table is the materialisation of two factors, for the consumers
        that read all of it (the embeddings, `export` and the Hamming
        checks); single rows (`profile_row`), d_Q rows and the lifts of
        automorphisms read the factors alone.  A tree edge joins (p, k) to
        (v, k), so row (v, k) is the deck row k (`deck_profiles`) plus the
        chain of v's tree path (`tree_steps`), mod m.  Written one block
        of about _TABLE_BLOCK bytes at a time, whole fibers or the rows of
        one fiber, so beside the table the temporaries are about one block.

        SizeCapExceeded, with the MemoryError chained, where the table
        cannot be allocated.
        """
        if self._profiles is None:
            deck_part = self.deck_profiles()
            nv, ne = self.base.vertex_count, self.base.edge_count
            n_cover = nv * self.deck_size
            try:
                prof = np.empty((n_cover, ne), dtype=deck_part.dtype)
            except MemoryError as exc:
                raise SizeCapExceeded(
                    f"traversal profiles of {n_cover} x {ne} residues need "
                    f"{n_cover * ne * deck_part.itemsize} bytes, more than "
                    f"can be allocated") from exc
            # rows of `side` deck ranks side by side, a power of m, so that
            # the sums run over rows of about _ROW_BYTES, not |E(X)|
            # residues
            side, m = 1, self.m
            while (side * m * ne <= _ROW_BYTES
                   and self.deck_size % (side * m) == 0):
                side *= m
            by_fiber = prof.reshape(nv, self.deck_size // side, side * ne)
            deck_rows = deck_part.reshape(self.deck_size // side, side * ne)
            # blocks of whole fibers, or of the rows of one fiber
            rows = max(1, _TABLE_BLOCK // max(side * ne, 1))
            fibers = max(1, rows // len(deck_rows))
            for lo in range(0, nv, fibers):
                chains = self._tree_chains(np.arange(lo, min(lo + fibers, nv)))
                chains = np.tile(chains, side)[:, None]
                for k in range(0, len(deck_rows), rows):
                    _add_mod(deck_rows[k:k + rows], chains, m,
                             by_fiber[lo:lo + fibers, k:k + rows])
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
        ``row.reshape(|V(X)|, deck_size)[:, perm].ravel()``.  Digit i of
        rank(l - k) is (l_i - k_i) mod m whatever the other digits are, so
        perm is an outer sum over the digits, built one digit at a time
        as in `deck_profiles`: about deck_size * m / (m - 1) additions,
        with no pass over all ranks per digit and nothing cached.
        """
        m = self.m
        perm = np.zeros(1, dtype=np.int64)
        for i, d in enumerate(self.label_of(k)):
            place = (np.arange(m, dtype=np.int64) - d) % m * m ** i
            perm = (place[:, None] + perm).ravel()
        return perm

    def orbit_reps(self) -> np.ndarray:
        """Per base vertex v, the cover vertex (u, 0) that represents the
        orbit holding the fiber over v; int64, shape (|V(X)|,).

        The group is the one that the deck translations and the checked
        lifts of the base's label automorphisms generate (`_checked_lift`);
        u is the least base vertex of the orbit.  Both kinds keep d and
        d_Q, so the (d, d_Q) pairs from any source are those from its
        representative.  On an unlabelled base every fiber is an orbit.
        Besides the deck part of the profiles (`deck_profiles`),
        allocates nothing longer than the deck.
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

    def _follows_formula(self) -> bool:
        """Whether `graph` is the graph `build_zm_cover` writes for this
        base, m and tree: |V(X)| * deck vertices, and cover edge e * deck
        + k from (t, k) to (h, k + eps_e) for base edge e = (t, h), the
        label moved in the digit of e (`_digit_moves`) where e is a cotree
        edge.  Checked against the edge arrays once per cover, one
        base-edge block at a time, and cached (clause 4 of
        `_checked_lift`).  Tails derived from the graph's own lift of
        this base (`MultiGraph.tails`) hold the formula by construction,
        so only stored tails, those of a hand-built graph, are compared.
        """
        if self._formula is None:
            self._formula = self._check_formula()
        return self._formula

    def _check_formula(self) -> bool:
        g, m, deck = self.base, self.m, self.deck_size
        heads = self.graph.heads
        n_cover = g.vertex_count * deck
        if (self.graph.vertex_count != n_cover
                or heads.size != g.edge_count * deck):
            return False
        # only build_zm_cover sets a graph's _lift, and it leaves the
        # tails to the formula
        tails = None if self.graph._lift == (g, deck) else self.graph.tails
        stride = {e: m ** i for i, e in enumerate(self.cotree)}
        ranks = np.arange(deck, dtype=_index_dtype(n_cover))
        want = np.empty_like(ranks)
        for e, (t, h) in enumerate(zip(g.tails.tolist(), g.heads.tolist())):
            block = slice(e * deck, (e + 1) * deck)
            if tails is not None and not np.array_equal(
                    tails[block], np.add(ranks, t * deck, out=want)):
                return False
            if e in stride:
                # blocks of m * stride ranks, one digit value per row, so
                # the move is one number per row and no deck-long move
                # array is built
                shape = (-1, m, stride[e])
                moves = (h * deck + _digit_moves(stride[e], m))[:, None]
                np.add(ranks.reshape(shape), moves.astype(want.dtype),
                       out=want.reshape(shape))
            else:
                np.add(ranks, h * deck, out=want)
            if not np.array_equal(heads[block], want):
                return False
        return True

    def __repr__(self):
        return (f"CoverGraph(base=|V|={self.base.vertex_count},"
                f"|E|={self.base.edge_count}, m={self.m}, r={self.r})")


def build_zm_cover(g: MultiGraph, m: int, tree: SpanningTree | None = None,
                   size_cap: int = DEFAULT_SIZE_CAP) -> CoverGraph:
    """Construct the Z_m-homology cover of g.

    g must be connected and 2-edge-connected (so the cover is well-defined
    and d_Q is a metric on it).  The optional tree fixes the construction
    layout; the cover's isomorphism type does not depend on it.

    The cover's graph is written as the targets of its signed-arc table
    (`MultiGraph.arc_heads`), in `_index_dtype(2 * max(|V~|, |E~|))`.
    Slot i = e * deck + k of base edge e = (t, h) holds arc 2i from (t, k)
    to (h, k + 1) and arc 2i + 1 from (h, k) to (t, k - 1), the label
    moved in the digit of e where e is a cotree edge (`_digit_move`) and
    kept where e is a tree edge.  Only the targets are stored: the
    sources (t, k) and (h, k) follow from the slot.  The graph's heads
    are the table's even entries and its tails, derived when read, the
    sources of those arcs, so cover edge i runs from (t, k) to (h, k + 1).
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
    arcs = 2 * g.edge_count * deck
    dst = np.empty(arcs, dtype=_index_dtype(max(arcs, 2 * n_cover)))
    ranks = np.arange(deck, dtype=dst.dtype)
    for e, (t, h) in enumerate(zip(g.tails.tolist(), g.heads.tolist())):
        block = slice(2 * e * deck, 2 * (e + 1) * deck)
        fwd, back = dst[block][0::2], dst[block][1::2]
        if e not in stride:
            np.add(ranks, h * deck, out=fwd)
            np.add(ranks, t * deck, out=back)
            continue
        # rows of whole blocks of m * stride ranks, 64 or more of them
        # where the deck allows (short rows slow every ufunc pass)
        width = m * stride[e]
        while width < min(64, deck):
            width *= m
        up = _digit_move(stride[e], m, width)
        by_row = ranks.reshape(-1, width)
        np.add(by_row, (h * deck + up).astype(dst.dtype),
               out=fwd.reshape(-1, width))
        # a move by -1 undoes the move by +1 of the rank one stride below
        np.add(by_row, (t * deck - np.roll(up, stride[e])).astype(dst.dtype),
               out=back.reshape(-1, width))
    moves = m, np.array([stride.get(e, 0) for e in range(g.edge_count)])
    cover_graph = MultiGraph.from_arc_heads(n_cover, dst, g, deck, moves)
    return CoverGraph(g, m, tree, cover_graph)


def _checked_lift(c: CoverGraph, vmap: np.ndarray, emap: np.ndarray,
                  signs: np.ndarray):
    """The lift of a base automorphism as its affine action (A, b) on the
    deck if the lift is an automorphism of c.graph, else None.

    The automorphism takes base edge e to emap[e], reversed where
    signs[e] < 0, so it acts on profiles by the signed column permutation
    P: (P p)[emap[e]] = signs[e] * p[e].  The lift f takes x to the vertex
    over vmap[v_x] whose label digits are the cotree columns of P(prof[x]).
    A profile row is affine in the label, prof[(v, k)] = prof[(v, 0)] +
    sum_i k_i prof[m**i] mod m (`CoverGraph.deck_profiles`), so f(v, k) =
    (vmap[v], A k + b_v) mod m (`_affine_action`): int64 arrays a of shape
    (r, r) and b of shape (|V(X)|, r).

    f is accepted only if
    1. (vmap, emap, signs) is an automorphism of the base
       (`graph._is_automorphism`);
    2. A eps_e + b_h - b_t = signs[e] eps_{emap[e]} mod m for every base
       edge e = (t, h), eps_e its cotree unit vector and 0 for a tree edge
       (`_moves_edges`): then f takes the cover edge over e from (t, k) to
       (h, k + eps_e) to the cover edge over emap[e] at A k + b_t, or
       where signs[e] < 0 to the one at A (k + eps_e) + b_h, reversed;
    3. det A, exact (`trees._bareiss_det`), is a unit mod m: k -> A k + b_v
       is a bijection of the deck, so f is one of the vertices and of the
       edges;
    4. c.graph is the construction formula (`CoverGraph._follows_formula`,
       one pass over its edge arrays per cover).
    Together they make f an automorphism of c.graph over the base's, and
    P only permutes and signs the edge terms of d_Q, so f keeps d and
    d_Q.  Clauses 2 and 3 hold for every base automorphism of a correctly
    built cover, which is characteristic; they check the implementation.
    """
    if not _is_automorphism(c.base, vmap, emap, signs):
        return None
    a, b = _affine_action(c, emap, signs)
    if (_moves_edges(c, a, b, emap, signs)
            and np.gcd(_bareiss_det(a.tolist()) % c.m, c.m) == 1
            and c._follows_formula()):
        return a, b
    return None


def _affine_action(c: CoverGraph, emap: np.ndarray, signs: np.ndarray):
    """(A, b) of the lift of the base edge map (emap, signs): column i of
    A holds the cotree digits of P(prof[m**i]), the row of cotree edge i's
    fundamental loop, and b_v those of P(prof[v * deck]).  Reads these
    |V(X)| + r rows from the factors of the profiles, on the columns src
    only: the r loop rows of the deck part (`CoverGraph.deck_profiles`)
    and, since prof[0] = 0, the tree-path chains of the base vertices."""
    m, r = c.m, c.r
    inverse = np.empty_like(emap)
    inverse[emap] = np.arange(emap.size)
    src = inverse[list(c.cotree)]  # the base edge P moves to cotree column i
    loops = c.deck_profiles()[m ** np.arange(r, dtype=np.int64)][:, src]
    paths = c._tree_chains(np.arange(c.base.vertex_count), src)
    sign = np.where(signs[src] > 0, 1, -1)
    digits = np.concatenate([loops, paths]).astype(np.int64) * sign % m
    return digits[:r].T, digits[r:]


def _moves_edges(c: CoverGraph, a: np.ndarray, b: np.ndarray,
                 emap: np.ndarray, signs: np.ndarray) -> bool:
    """Clause 2 of `_checked_lift`: A eps_e + b_h - b_t = signs[e]
    eps_{emap[e]} mod m for every base edge e = (t, h)."""
    g = c.base
    eps = np.zeros((g.edge_count, c.r), dtype=np.int64)
    eps[list(c.cotree), np.arange(c.r)] = 1
    moved = eps @ a.T + b[g.heads] - b[g.tails]
    sign = np.where(signs > 0, 1, -1)[:, None]
    return not np.any((moved - sign * eps[emap]) % c.m)


def cover_girth(c: CoverGraph):
    """Girth of the cover, from one search over base states
    (`graph.cycle_bound_from`) rooted at (v, 0) for one v per orbit of the
    base's checked label automorphisms (`graph.symmetric_roots`).

    Reads no cover array.  Exact: a base automorphism permutes and signs
    the edge counts, so it maps a closed walk whose counts are all 0 mod m
    to another one, and so lifts to an automorphism of the cover; with the
    deck translations it moves every shortest cycle through some root.
    """
    return cycle_bound_from(c.base, symmetric_roots(c.base), c.m, c.cotree)


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
    (a & 1) (`MultiGraph.arc_heads`), whose source is a's base source at
    x's rank; PathMismatch if a does not leave x's fiber x // deck,
    IndexError for a base arc out of range.  The walks still active at
    step j are the longest ones, a prefix of the block in longest-first
    order.  A step from the wrong fiber still takes a slot in range, so
    the steps' fibers are checked together once the walks are lifted;
    the error names the least step that fails.
    """
    deck, base = c.deck_size, c.base
    dst = c.graph.arc_heads()
    lengths = np.fromiter(map(len, walks), np.int64, len(walks))
    order = np.argsort(-lengths, kind="stable")
    arcs = np.fromiter(chain.from_iterable(walks), np.int64,
                       int(lengths.sum()))
    if arcs.size and not (0 <= arcs.min()
                          and arcs.max() < 2 * base.edge_count):
        raise IndexError("base arc out of range")
    # the base vertex each step must leave, and the slot-independent part
    # of its cover arc id
    fibers = np.stack([base.tails, base.heads], axis=1).ravel()[arcs]
    arcs = (arcs >> 1) * (2 * deck) + (arcs & 1)
    firsts = np.cumsum(lengths) - lengths
    offsets = firsts[order]
    active = np.searchsorted(-lengths[order],
                             -np.arange(lengths.max(initial=0)))
    starts = np.asarray(starts, dtype=np.int64)
    cur = starts[order]
    for j, n in enumerate(active.tolist()):
        at = offsets[:n] + j
        arc = arcs[at] + 2 * (cur[:n] % deck)
        arcs[at] = arc
        cur[:n] = dst[arc]
    # each step leaves the vertex the step before it reached, or the start
    froms = np.empty_like(arcs)
    froms[1:] = dst[arcs[:-1]]
    walked = lengths > 0
    froms[firsts[walked]] = starts[walked]
    bad = np.flatnonzero(froms // deck != fibers)
    if bad.size:
        step = bad - np.repeat(firsts, lengths)[bad]
        raise PathMismatch(f"step {int(step.min())} of a lifted walk does "
                           f"not start at its cover vertex")
    ends = np.empty_like(cur)
    ends[order] = cur
    return ends, arcs


def lift_path(c: CoverGraph, base_walk: Walk, start: int) -> tuple[int, list[int]]:
    """Lift a base walk to the cover starting at `start`.

    Returns (endpoint, cover edge ids of the lift).  The start vertex must
    lie over the walk's origin.  The lift is `_lift_block` on a block of
    one; the cover edge of a step is e * deck + the rank of its tail-side
    vertex: on a forward step the current vertex, so the edge is the
    arc's slot arc >> 1, and on a backward step the arc's target.
    """
    c.require_vertices(start)
    deck = c.deck_size
    if start // deck != base_walk.start:
        raise PathMismatch(f"start vertex lies over {start // deck}, walk "
                           f"begins at {base_walk.start}")
    ends, arcs = _lift_block(c, [start], [base_walk.steps])
    slots = arcs >> 1
    back = slots // deck * deck + c.graph.arc_heads()[arcs] % deck
    edges = np.where(arcs & 1, back, slots)
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
    (base_profiles()[y] - base_profiles()[x]) mod m, read from the
    factors (`CoverGraph.profile_row`); the value is independent of the
    chosen path.  The direction-free traversal cost of
    an edge with residue z is min(z, m - z).
    """
    counts = (c.profile_row(y).astype(np.int64) - c.profile_row(x)) % c.m
    return EdgeChainModM(tuple(int(v) for v in counts), c.m)
