"""A cover's own arrays against oracles that build them another way.

`CoverGraph.base_profiles` builds the fiber over the root digit by
digit in the residue dtype, and every other fiber as its tree parent's
with the tree edge's column moved by one; the oracle is the int64
formula it replaced (a tree-path chain matrix, a digit matrix, a matmul
and a per-vertex int64 sum).  `cover.build_zm_cover` writes the targets
of the signed-arc table (`MultiGraph.arc_heads`) one base edge's block at
a time, each backward arc's move read off its forward move; the oracle
reads the backward arcs off the forward ones, the edge arrays, by an
inverse head index per block.  The table stores no sources: they, and the
cover's tails, follow from the slot formula, which the oracle
`formula_arc_sources` evaluates in int64.  BFS lifts the base's CSR arcs
through that table; the oracle is `MultiGraph.arcs`, which sorts every
arc of a graph that knows nothing of the cover.
"""

import tracemalloc

import numpy as np
import pytest

from homcover import (CoverGraph, HomcoverError, MultiGraph, NoArcTable,
                      Walk, bfs_distance_matrix, build_tower, build_zm_cover,
                      compression_profile, enumerate_spanning_trees,
                      lift_path, named_graph)
from homcover.cover import MAX_M, _checked_lift, _lift_block, _residue_dtype
from homcover.errors import SizeCapExceeded
from homcover.graph import _index_dtype, cayley_zm_power, label_automorphisms
from homcover.harness import check_conglifts

#: Vertex cap of the covers built here; it keeps each oracle's int64
#: temporaries near 100 MB.
CAP = 1 << 20

#: Moduli on both sides of the uint8 add's wrap-around (above 128) and
#: of the dtype's width (256).
MODULI = (2, 3, 5, 128, 129, 255, 256, 257)

#: The same edges for uint16, on the bases with one cotree edge.
WIDE_MODULI = (32768, 32769, 65535, MAX_M)


def int64_profiles(c) -> np.ndarray:
    """base_profiles by the int64 formula: the chain of the tree path to
    each base vertex plus the rank's digits times the cotree loops."""
    g, m, deck = c.base, c.m, c.deck_size
    pv = np.zeros((g.vertex_count, g.edge_count), dtype=np.int64)
    for v in c.tree0.depth_order():
        par = c.tree0.parent[v]
        if par is None:
            continue
        p, e = par
        pv[v] = pv[p]
        pv[v, e] += 1 if g.endpoints(e)[0] == p else -1
    loops = np.zeros((c.r, g.edge_count), dtype=np.int64)
    for i, e in enumerate(c.cotree):
        t, h = g.endpoints(e)
        loops[i] = pv[t] - pv[h]
        loops[i, e] += 1
    ranks = np.arange(deck, dtype=np.int64)
    digits = np.empty((deck, c.r), dtype=np.int64)
    for i in range(c.r):
        digits[:, i] = (ranks // m ** i) % m
    deck_part = (digits @ (loops % m)) % m
    prof = np.empty((g.vertex_count * deck, g.edge_count),
                    dtype=_residue_dtype(m))
    for v in range(g.vertex_count):
        prof[v * deck:(v + 1) * deck] = (pv[v][None, :] + deck_part) % m
    return prof


def int64_arc_ends(c):
    """(source, target) of every table arc read off the edge arrays in
    int64: arcs 2i and 2i + 1 interleaved by stacking cover edge i
    forward with the backward edge of its slot, the edge of block e whose
    head has rank k."""
    deck = c.deck_size
    tails, heads = (a.astype(np.int64) for a in (c.graph.tails, c.graph.heads))
    ids = np.arange(tails.size, dtype=np.int64)
    inv = ids.copy()
    inv[ids - ids % deck + heads % deck] = ids
    return (np.stack([tails, heads[inv]], axis=1).ravel(),
            np.stack([heads, tails[inv]], axis=1).ravel())


def formula_arc_sources(g):
    """Source of every signed arc of a cover's graph g by the slot
    formula, in int64: arc 2 * (e * deck + k) + b leaves the source of
    base arc 2e + b at rank k, the base tail (b = 0) or head (b = 1)."""
    base, deck = g._lift
    ends = np.stack([base.tails, base.heads], axis=1).astype(np.int64)
    return (ends[:, None, :] * deck
            + np.arange(deck, dtype=np.int64)[None, :, None]).ravel()


def other_tree(g):
    """A spanning tree of g other than the default one."""
    return list(enumerate_spanning_trees(g))[-1]


BASES = {
    "doubled_edge": lambda: (named_graph("doubled_edge"), None),
    "cycle:1": lambda: (named_graph("cycle:1"), None),
    "k4": lambda: (named_graph("k4"), None),
    "petersen": lambda: (named_graph("petersen"), None),
    # a loop plus a parallel pair
    "loop_pair": lambda: (MultiGraph(2, [[0, 1], [0, 1], [0, 0]]), None),
    # two cotree loops through one tree edge: sums of two large residues
    "theta": lambda: (MultiGraph(2, [[0, 1], [0, 1], [0, 1]]), None),
    # a tree path against its edge: residues m - 1 in the vertex part
    "reversed_pair": lambda: (MultiGraph(2, [[1, 0], [0, 1]]), None),
    "k4_other_tree": lambda: (named_graph("k4"),
                              other_tree(named_graph("k4"))),
}


def fitting(names, moduli):
    """The (base, m) pairs whose cover has at most CAP vertices."""
    pairs = []
    for name in names:
        g, _tree = BASES[name]()
        r = g.edge_count - g.vertex_count + 1
        pairs += [(name, m) for m in moduli if g.vertex_count * m ** r <= CAP]
    return pairs


def cover_of(name, m):
    g, tree = BASES[name]()
    return build_zm_cover(g, m, tree=tree, size_cap=CAP)


def assert_same_arcs(g: MultiGraph):
    """The arcs that `bfs_distance_matrix` lifts through the table of a
    cover's graph g, every base arc at every rank, against the sorted CSR
    arcs of a plain copy of g's edges."""
    base, deck = g._lift
    indptr, edge, sign, _head = base.arcs()
    owner = np.repeat(np.arange(base.vertex_count), np.diff(indptr))
    x = (owner * deck + np.arange(deck)[:, None]).ravel()
    arc = np.tile(2 * deck * (edge - owner) + (sign < 0), deck) + 2 * x
    src, dst = formula_arc_sources(g), g.arc_heads()
    assert np.array_equal(src[arc], x)
    # a table arc's cover edge: its block and the rank of its tail side
    tail_side = np.where(arc & 1, dst[arc], src[arc])
    cover_edge = (arc >> 1) // deck * deck + tail_side % deck
    order = np.lexsort((cover_edge, x))
    want = MultiGraph.from_arrays(g.vertex_count, g.tails, g.heads).arcs()
    assert np.array_equal(np.bincount(x, minlength=g.vertex_count),
                          np.diff(want[0]))
    assert np.array_equal(cover_edge[order], want[1])
    assert np.array_equal(np.tile(sign, deck)[order], want[2])
    assert np.array_equal(dst[arc][order], want[3])


class TestBaseProfiles:
    @pytest.mark.parametrize("name,m", fitting(sorted(BASES), MODULI))
    def test_matches_int64_formula(self, name, m):
        c = cover_of(name, m)
        got = c.base_profiles()
        want = int64_profiles(c)
        assert got.dtype == want.dtype == _residue_dtype(m)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name,m", fitting(["cycle:1", "reversed_pair"],
                                               WIDE_MODULI))
    def test_matches_int64_formula_uint16(self, name, m):
        c = cover_of(name, m)
        got = c.base_profiles()
        assert got.dtype == np.uint16
        assert got.tobytes() == int64_profiles(c).tobytes()

    def test_long_cycle_peak_near_the_profile(self):
        # a (|V(X)|, |E(X)|) int64 chain matrix alone would be 32 MB here,
        # four times the 8 MB profile
        c = build_zm_cover(named_graph("cycle:2000"), 2)
        tracemalloc.start()
        try:
            prof = c.base_profiles()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prof.shape == (4000, 2000)
        assert peak < 1.25 * prof.nbytes

    def test_table_too_large_to_allocate(self, long_cycle_cover):
        c = long_cycle_cover
        with pytest.raises(SizeCapExceeded,
                           match="need 80000000000 bytes") as raised:
            c.base_profiles()
        assert isinstance(raised.value.__cause__, MemoryError)
        assert c._profiles is None


class TestLiftedArcs:
    @pytest.mark.parametrize("name,m", fitting(sorted(BASES), [2, 3, 5]))
    def test_matches_sorted_arcs(self, name, m):
        assert_same_arcs(cover_of(name, m).graph)

    @pytest.mark.parametrize("rank,levels", [(2, 3), (3, 2)])
    def test_m2_tower_levels(self, rank, levels):
        tower = build_tower(rank, 2, levels)
        assert len(tower.levels) == levels
        for level in tower.levels[1:]:
            assert_same_arcs(level.graph)

    def test_m3_tower_level_2(self):
        assert_same_arcs(build_tower(2, 3, 2).levels[-1].graph)

    def test_tower_profile_builds_no_cover_arcs(self):
        # BFS rows lift the base's arcs through the cover's arc table,
        # so the cover's graph gets no sorted CSR arcs
        cover = build_tower(2, 3, 2).levels[-1].cover
        compression_profile(cover, [0, 5, cover.graph.vertex_count - 1], "dq")
        assert cover.graph._arcs is None


class TestArcEnds:
    @pytest.mark.parametrize(
        "name,m", fitting(sorted(BASES), [2, 3, 4, 5, 257]) + [("tower", 3)])
    def test_matches_int64_formula(self, name, m, request):
        c = (request.getfixturevalue("tower_level") if name == "tower"
             else cover_of(name, m))
        src, dst = int64_arc_ends(c)
        got = c.graph.arc_heads()
        assert got.dtype == np.int32
        assert np.array_equal(got, dst)
        # the backward arcs read off the edge arrays leave the vertices
        # that the slot formula names
        assert np.array_equal(src, formula_arc_sources(c.graph))

    @pytest.mark.parametrize("name,m", fitting(sorted(BASES), [2, 5]))
    def test_edges_are_the_forward_arcs(self, name, m):
        g = cover_of(name, m).graph
        src, dst = formula_arc_sources(g), g.arc_heads()
        assert g.tails.dtype == g.heads.dtype == np.int32
        assert np.shares_memory(g.heads, dst)
        assert np.array_equal(g.tails, src[0::2])
        assert np.array_equal(g.heads, dst[0::2])

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_deck_one_on_a_plain_graph(self, name):
        # a plain graph has no table: BFS reads the heads of its CSR arcs,
        # and CSR arc (e, sign) is the Walk step 2e + b, (tail, head)
        # forward and (head, tail) backward
        g, _tree = BASES[name]()
        with pytest.raises(NoArcTable):
            g.arc_heads()
        indptr, edge, sign, head = g.arcs()
        step = 2 * edge + (sign < 0)
        owner = np.repeat(np.arange(g.vertex_count), np.diff(indptr))
        src = np.stack([g.tails, g.heads], 1).ravel()
        dst = np.stack([g.heads, g.tails], 1).ravel()
        assert np.array_equal(owner, src[step])
        assert np.array_equal(head, dst[step])

    def test_hand_built_cover_has_none(self):
        # a CoverGraph over edges that no build wrote as a table: BFS reads
        # them as a plain graph, and every lift raises the typed error
        c = build_zm_cover(named_graph("k4"), 3)
        hand = CoverGraph(c.base, c.m, c.tree0, MultiGraph.from_arrays(
            c.graph.vertex_count, c.graph.tails, c.graph.heads))
        for lift in (hand.graph.arc_heads,
                     lambda: lift_path(hand, Walk(0, (0,)), 0),
                     lambda: _lift_block(hand, [0], [[0]]),
                     lambda: check_conglifts(hand, "k4", 10, seed=1)):
            with pytest.raises(NoArcTable) as raised:
                lift()
            assert isinstance(raised.value, HomcoverError)
            assert isinstance(raised.value, ValueError)
        assert np.array_equal(bfs_distance_matrix(hand.graph, [0, 50]),
                              bfs_distance_matrix(c.graph, [0, 50]))

    def test_width_rule(self):
        assert _index_dtype((1 << 31) - 1) == np.int32
        assert _index_dtype(1 << 31) == np.int64

    def test_tower_level_peak(self):
        # the arc table's targets are written once by the build and held:
        # level 2's profiles and one BFS row add no read-off of it (65.9
        # MiB traced when the table was read off two int64 edge arrays)
        tracemalloc.start()
        try:
            c = build_tower(2, 3, 2).levels[-1].cover
            c.base_profiles()
            bfs_distance_matrix(c.graph, [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 52 << 20


class TestDerivedTails:
    @pytest.mark.parametrize(
        "name,m", fitting(sorted(BASES), [2, 3, 5, 257]) + [("tower", 3)])
    def test_slot_formula(self, name, m, request):
        c = (request.getfixturevalue("tower_level") if name == "tower"
             else cover_of(name, m))
        g = c.graph
        tails = g.tails
        assert tails is g.tails  # derived once
        assert tails.dtype == g.arc_heads().dtype == np.int32
        assert np.array_equal(tails, formula_arc_sources(g)[0::2])
        with pytest.raises(ValueError):
            tails[0] = tails[-1]
        assert not tails.flags.writeable

    def test_built_tails_not_read_by_the_formula_check(self):
        c = build_zm_cover(cayley_zm_power(3, 2), 2)
        assert c._follows_formula()
        assert c.graph._tails is None

    def test_moved_stored_tail_refuses_every_lift(self):
        # a hand-built cover stores its tails, so the formula check reads
        # them: one moved tail refuses the lift of every base automorphism,
        # and each fiber stays its own orbit
        c = build_zm_cover(cayley_zm_power(3, 2), 2)
        n = c.graph.vertex_count
        autos = label_automorphisms(c.base)
        assert len(autos) == 3

        def hand_built(tails):
            return CoverGraph(c.base, c.m, c.tree0, MultiGraph.from_arrays(
                n, tails, c.graph.heads))

        kept = hand_built(c.graph.tails.copy())
        assert all(_checked_lift(kept, *auto) is not None for auto in autos)
        assert kept.orbit_reps().tolist() == [0] * c.base.vertex_count
        tails = c.graph.tails.copy()
        tails[0] = (tails[0] + 1) % n
        moved = hand_built(tails)
        assert all(_checked_lift(moved, *auto) is None for auto in autos)
        assert moved._formula is False
        fibers = np.arange(c.base.vertex_count) * c.deck_size
        assert np.array_equal(moved.orbit_reps(), fibers)
