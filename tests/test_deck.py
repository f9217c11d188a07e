"""The deck group (Z_m)^r acts on every cover by automorphisms, and so do
the checked lifts of a labelled base's label automorphisms.

These tests check the deck fact on the edge arrays, and check every
result that relies on the symmetry (orbit-root girth, rows gathered from
one representative per fiber or per orbit) against computations that do
not.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homcover import (CoverGraph, MultiGraph, bfs_distance_matrix,
                      build_tower, build_zm_cover, cayley_zm_power,
                      compression_profile, cover_girth, d_q_from, girth,
                      is_two_edge_connected, named_graph, verify_compare)
from homcover.cover import _checked_lift
from homcover.embed import binary_embed_matrix
from homcover.graph import _has_loop, _has_parallel_pair, label_automorphisms

from conftest import connected_multigraphs

NAMED = ("doubled_edge", "k4", "c5", "petersen")

#: The generic girth runs a Python BFS from every vertex; above this size
#: (the Petersen cover at m = 5 has 156,250 vertices) it takes minutes.
GENERIC_GIRTH_LIMIT = 10_000


def shifted(c, i: int) -> np.ndarray:
    """Index of the translate by generator i of every cover vertex."""
    idx = np.arange(c.graph.vertex_count, dtype=np.int64)
    v, rank = np.divmod(idx, c.deck_size)
    stride = c.m ** i
    digit = (rank // stride) % c.m
    return v * c.deck_size + rank + (((digit + 1) % c.m) - digit) * stride


def edge_multiset(tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    pairs = np.stack([tails, heads], axis=1)
    return pairs[np.lexsort((heads, tails))]


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("name", NAMED)
def test_generators_preserve_edges(name, m):
    c = build_zm_cover(named_graph(name), m)
    g = c.graph
    want = edge_multiset(g.tails, g.heads)
    for i in range(c.r):
        shift = shifted(c, i)
        got = edge_multiset(shift[g.tails], shift[g.heads])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name,m", [("k4", 3), ("doubled_edge", 5), ("c5", 2)])
def test_deck_permutation_is_label_subtraction(name, m):
    c = build_zm_cover(named_graph(name), m)
    for k in range(c.deck_size):
        shift = c.label_of(k)
        perm = c.deck_permutation(k)
        for rank in range(c.deck_size):
            label = c.label_of(rank)
            assert perm[rank] == c.rank_of(
                [a - b for a, b in zip(label, shift)])


# -- fiber-root girth ------------------------------------------------------


#: Bases with loops, parallel and antiparallel edges, which decide whether
#: a cover has a loop or a parallel pair, by edge list; with cycle:1 and
#: cycle:2 next to the named graphs.
SMALL_BASES = {
    "loop_and_parallel_pair": (2, [[0, 0], [0, 1], [0, 1]]),
    "two_loops": (1, [[0, 0], [0, 0]]),
    "antiparallel_and_loop": (2, [[0, 1], [1, 0], [1, 1]]),
    "triple_edge": (2, [[0, 1]] * 3),
}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("name", NAMED + ("cycle:1", "cycle:2",
                                          *SMALL_BASES))
def test_cover_girth_equals_generic(name, m):
    base = (MultiGraph(*SMALL_BASES[name]) if name in SMALL_BASES
            else named_graph(name))
    c = build_zm_cover(base, m)
    # cover_girth reads these off the base, never off the cover's edges
    assert not _has_loop(c.graph)
    assert _has_parallel_pair(c.graph) == (m == 2 and _has_loop(base))
    got = cover_girth(c)
    assert got > girth(c.base)
    if c.graph.vertex_count <= GENERIC_GIRTH_LIMIT:
        assert got == girth(c.graph)


@given(connected_multigraphs(max_vertices=5, max_extra_edges=4)
       .filter(is_two_edge_connected),
       st.integers(min_value=2, max_value=3))
@settings(max_examples=30, deadline=None)
def test_cover_girth_random_bases(g, m):
    assume(g.vertex_count * m ** (g.edge_count - g.vertex_count + 1) <= 600)
    c = build_zm_cover(g, m)
    assert cover_girth(c) == girth(c.graph)


# -- rows from one representative per fiber ----------------------------------
#
# The oracles compute every BFS row and d_Q row from its own source.


def compare_oracle(c, sources, max_details=10, dq_perturb=0):
    g0 = girth(c.base)
    out = {"pairs": 0, "mono": 0, "iff": 0, "eq": 0, "details": []}
    dmat = bfs_distance_matrix(c.graph, sources)
    for s, d_row in zip(sources, dmat):
        dq_row = d_q_from(c, s)
        if dq_perturb:
            dq_row = dq_row + np.where(np.arange(len(dq_row)) != s,
                                       dq_perturb, 0)
        out["pairs"] += len(d_row)
        mono = dq_row > d_row
        iff = (dq_row < g0) != (d_row < g0)
        eq = (d_row < g0) & (dq_row != d_row)
        out["mono"] += int(mono.sum())
        out["iff"] += int(iff.sum())
        out["eq"] += int(eq.sum())
        for t in np.nonzero(mono | iff | eq)[0]:
            if len(out["details"]) < max_details:
                out["details"].append({"source": int(s), "target": int(t),
                                       "d": int(d_row[t]),
                                       "d_q": int(dq_row[t])})
    return out


def profile_oracle(c, sources, mode):
    binary = binary_embed_matrix(c) if mode == "l2" else None
    dmat = bfs_distance_matrix(c.graph, sources)
    rows = {}
    for s, d_row in zip(sources, dmat):
        if mode == "l2":
            val = (binary != binary[s]).sum(axis=1, dtype=np.int64)
        else:
            val = d_q_from(c, s)
        for t, q in zip(d_row.tolist(), val.tolist()):
            cnt, lo, hi = rows.get(t, (0, q, q))
            rows[t] = (cnt + 1, min(lo, q), max(hi, q))
    return [(t, cnt, Fraction(lo), Fraction(hi))
            for t, (cnt, lo, hi) in sorted(rows.items())]


def source_sets(c):
    """All sources in order, a shuffled sample crossing chunk boundaries,
    and 40 sources in descending order."""
    n = c.graph.vertex_count
    rng = random.Random(c.graph.vertex_count)
    return [list(range(n)),
            rng.sample(range(n), min(n, 70)),
            list(range(n - 1, -1, -1))[:40]]


COVERS = [("k4", 3), ("petersen", 2), ("c5", 3), ("doubled_edge", 5)]


@pytest.mark.parametrize("perturb", [0, 1])
@pytest.mark.parametrize("name,m", COVERS)
def test_verify_compare_matches_oracle(name, m, perturb):
    c = build_zm_cover(named_graph(name), m)
    for sources in source_sets(c):
        rep = verify_compare(c, sources, _dq_perturb=perturb)
        want = compare_oracle(c, sources, dq_perturb=perturb)
        assert rep.pairs_checked == want["pairs"]
        assert rep.monotone_violations == want["mono"]
        assert rep.iff_violations == want["iff"]
        assert rep.equality_violations == want["eq"]
        assert rep.details == want["details"]
        assert rep.passed == (not perturb)


def many_fiber_cases():
    """(name, sources, max_details) on the 120-vertex cycle:40 cover at
    m = 3, whose 40 fibers cross the 32-representative chunk."""
    n = 120
    rng = random.Random(40)
    return [("all", list(range(n)), 10),
            ("repeats", rng.choices(range(n), k=90) + [3, 4, 5, 3, 100, 3], 10),
            ("no details", list(range(n - 1, -1, -1)), 0),
            ("25 details", rng.sample(range(n), 60), 25)]


@pytest.mark.parametrize("perturb", [0, 1])
@pytest.mark.parametrize("case", range(4))
def test_verify_compare_many_fibers(case, perturb):
    c = build_zm_cover(named_graph("cycle:40"), 3)
    _, sources, max_details = many_fiber_cases()[case]
    rep = verify_compare(c, sources, max_details=max_details,
                         _dq_perturb=perturb)
    want = compare_oracle(c, sources, max_details=max_details,
                          dq_perturb=perturb)
    assert rep.pairs_checked == want["pairs"] == len(sources) * 120
    assert rep.monotone_violations == want["mono"]
    assert rep.iff_violations == want["iff"]
    assert rep.equality_violations == want["eq"]
    assert rep.details == want["details"]
    assert len(rep.details) == (min(max_details, 25) if perturb else 0)
    assert rep.passed == (not perturb)


@pytest.mark.parametrize("mode", ["dq", "l2"])
@pytest.mark.parametrize("name,m", COVERS)
def test_compression_profile_matches_oracle(name, m, mode):
    c = build_zm_cover(named_graph(name), m)
    for sources in source_sets(c):
        prof = compression_profile(c, sources, mode)
        got = [(r.t, r.pair_count, r.min_val, r.max_val) for r in prof.rows]
        assert got == profile_oracle(c, sources, mode)


def test_out_of_range_source_rejected():
    c = build_zm_cover(named_graph("k4"), 3)
    for bad in (-1, c.graph.vertex_count):
        with pytest.raises(IndexError):
            verify_compare(c, [0, bad])


def test_compression_profile_many_fibers():
    # 40 fibers cross the 32-representative chunk; repeats weigh a fiber
    c = build_zm_cover(named_graph("cycle:40"), 3)
    n = c.graph.vertex_count
    rng = random.Random(40)
    for sources in (list(range(n)), rng.choices(range(n), k=90)):
        prof = compression_profile(c, sources, "dq")
        got = [(r.t, r.pair_count, r.min_val, r.max_val) for r in prof.rows]
        assert got == profile_oracle(c, sources, "dq")


@pytest.mark.parametrize("mode", ["dq", "l2"])
def test_compression_profile_out_of_range_source(mode):
    c = build_zm_cover(named_graph("k4"), 3)
    for bad in (-1, c.graph.vertex_count):
        with pytest.raises(IndexError):
            compression_profile(c, [0, bad], mode)


# -- rows from one representative per orbit ----------------------------------
#
# On a labelled base the checked lifts of the label automorphisms join
# fibers into orbits; the same per-source oracles must agree.


def labelled_prism() -> MultiGraph:
    """Triangular prism: outer triangle label 0, inner triangle label 1,
    spokes label 2.  The rotations are label automorphisms; no label
    automorphism swaps the triangles, so there are two orbits."""
    edges = ([[i, (i + 1) % 3] for i in range(3)]
             + [[3 + i, 3 + (i + 1) % 3] for i in range(3)]
             + [[i, 3 + i] for i in range(3)])
    return MultiGraph(6, edges, labels=[0] * 3 + [1] * 3 + [2] * 3)


def check_against_oracles(c, sources):
    for perturb in (0, 1):
        rep = verify_compare(c, sources, _dq_perturb=perturb)
        want = compare_oracle(c, sources, dq_perturb=perturb)
        assert (rep.pairs_checked, rep.monotone_violations,
                rep.iff_violations, rep.equality_violations, rep.details) == (
            want["pairs"], want["mono"], want["iff"], want["eq"],
            want["details"])
    for mode in ("dq", "l2"):
        prof = compression_profile(c, sources, mode)
        got = [(r.t, r.pair_count, r.min_val, r.max_val) for r in prof.rows]
        assert got == profile_oracle(c, sources, mode)


def tower_covers():
    return [lvl.cover for lvl in build_tower(2, 2, 3).levels[1:]]


def test_cayley_covers_are_one_orbit():
    for c in (build_zm_cover(cayley_zm_power(3, 2), 2),
              build_zm_cover(cayley_zm_power(2, 3), 2),
              tower_covers()[0]):
        assert np.unique(c.orbit_reps()).tolist() == [0]
    # level 3 covers the unlabelled level 2: one orbit per fiber
    c = tower_covers()[1]
    assert c.base.labels is None
    assert np.array_equal(c.orbit_reps(), np.arange(8) * c.deck_size)


def test_orbits_match_oracles_cube_m2():
    c = build_zm_cover(cayley_zm_power(3, 2), 2)
    for sources in source_sets(c):
        check_against_oracles(c, sources)


def test_orbits_match_oracles_z3_squared_m2_sampled():
    c = build_zm_cover(cayley_zm_power(2, 3), 2)
    assert c.graph.vertex_count == 9 * 2 ** 10
    rng = random.Random(5)
    check_against_oracles(c, rng.sample(range(c.graph.vertex_count), 40))


def test_orbits_match_oracles_m2_tower_levels():
    for c in tower_covers():
        for sources in source_sets(c):
            check_against_oracles(c, sources)
        assert cover_girth(c) == girth(c.graph)


@pytest.mark.parametrize("m", [2, 3])
def test_several_orbits(m):
    c = build_zm_cover(labelled_prism(), m)
    assert c.orbit_reps().tolist() == [0] * 3 + [3 * c.deck_size] * 3
    for sources in source_sets(c):
        check_against_oracles(c, sources)
    assert cover_girth(c) == girth(c.graph)


def test_bad_lift_falls_back_to_fibers():
    # one moved head changes two degrees, and no fixed-point-free lift of
    # a translation keeps them; the fiber representatives are still exact
    # for themselves
    c = build_zm_cover(cayley_zm_power(3, 2), 2)
    heads = c.graph.heads.copy()
    heads[0] = (heads[0] + 1) % c.graph.vertex_count
    broken = CoverGraph(c.base, c.m, c.tree0, MultiGraph.from_arrays(
        c.graph.vertex_count, c.graph.tails, heads))
    autos = label_automorphisms(c.base)
    assert len(autos) == 3
    for auto in autos:
        assert _checked_lift(c, *auto) is not None
        assert _checked_lift(broken, *auto) is None
    fibers = np.arange(c.base.vertex_count) * c.deck_size
    assert np.array_equal(broken.orbit_reps(), fibers)
    fibers = fibers.tolist()
    for sources in (fibers, fibers[::-1] + fibers[:3]):
        check_against_oracles(broken, sources)


@pytest.mark.parametrize("labels", [
    [[0]] * 18,                        # unhashable
    [{"g": 0}] * 18,                   # unhashable
    [0] * 18,                          # every (label, direction) repeats
], ids=["lists", "objects", "repeated"])
def test_labels_that_cannot_steer(labels):
    g = cayley_zm_power(2, 3)
    g = MultiGraph.from_arrays(g.vertex_count, g.tails, g.heads, labels)
    assert label_automorphisms(g) == []
    c = build_zm_cover(g, 2)
    assert np.array_equal(c.orbit_reps(), np.arange(9) * c.deck_size)
