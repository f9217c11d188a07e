"""The BFS engine against two independent oracles.

`bfs_distance_matrix` runs one pass per source, pushing from the
frontier at every level and keeping each new vertex once through a
`claim` slot (small frontiers) or a one-byte flag per vertex (large
ones).  The oracles know nothing of either: a pure-Python deque BFS over
`adjacency_of`, and scipy's Dijkstra on the CSR adjacency matrix.  On a
cover the engine lifts the base's arcs through the cover's arc table;
there a plain copy of the cover's edges, which steps through its own
CSR arcs, is a third oracle.  The large levels of a cover with a large
deck move per-fiber frontier masks by deck shifts instead
(`graph._DeckShifts`); lowering `graph._SHIFT_DECK_FLOOR` sends small
covers down that path too.
"""

import hashlib
import os
import random
import subprocess
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homcover
from homcover import (MultiGraph, bfs_distance_matrix, build_tower,
                      build_zm_cover, graph, named_graph)
from homcover.graph import UNREACHABLE

from conftest import multigraphs, traced_peak, two_edge_connected_multigraphs

#: Source counts from an empty matrix to 130 rows, with counts at and
#: next to 64 and 128.
CHUNK_EDGES = (0, 1, 63, 64, 65, 130)

#: A seeded random graph on 1,000 vertices with 10,000 edges: from
#: vertex 0, levels 2 and 3 each hold more than a quarter of all arcs.
_rng = random.Random(20)
DENSE = MultiGraph(1000, [(_rng.randrange(1000), _rng.randrange(1000))
                          for _ in range(10_000)])

#: One-source inputs: trailing arc-less vertices (one of them the
#: source), a graph with no arcs, a disconnected one, loops and parallel
#: edges, a hub whose frontier holds most arcs, and dense frontiers that
#: take the flag rule.
ONE_SOURCE = [
    (MultiGraph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]), [1]),
    (MultiGraph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]), [6]),
    (MultiGraph(3), [1]),
    (MultiGraph(7, [(0, 1), (1, 2), (4, 5), (5, 6), (6, 4)]), [5]),
    (MultiGraph(4, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2), (2, 3),
                    (2, 3), (3, 0)]), [1]),
    (MultiGraph(9, [(0, v) for v in range(1, 9)] + [(1, 2), (5, 6)]), [3]),
    (DENSE, [0]),
]


def one_source_examples(test):
    for case in ONE_SOURCE:
        test = example(case)(test)
    return test


def deque_oracle(g: MultiGraph, sources) -> np.ndarray:
    out = np.full((len(sources), g.vertex_count), UNREACHABLE, dtype=np.int64)
    for i, s in enumerate(sources):
        out[i, s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for _e, _d, w in g.adjacency_of(u):
                if out[i, w] == UNREACHABLE:
                    out[i, w] = out[i, u] + 1
                    queue.append(w)
    return out


def scipy_oracle(g: MultiGraph, sources) -> np.ndarray:
    from scipy.sparse.csgraph import shortest_path
    out = np.empty((len(sources), g.vertex_count), dtype=np.int64)
    if len(sources):
        d = np.atleast_2d(shortest_path(g.spmatrix(), method="D",
                                        unweighted=True, indices=sources))
        d[np.isinf(d)] = UNREACHABLE  # 2**62 is exact in float64
        out[:] = d
    return out


@st.composite
def graphs_and_sources(draw):
    g = draw(multigraphs())
    count = draw(st.one_of(st.just(1), st.sampled_from(CHUNK_EDGES),
                           st.integers(min_value=0, max_value=8)))
    ids = st.integers(min_value=0, max_value=g.vertex_count - 1)
    return g, draw(st.lists(ids, min_size=count, max_size=count))


@given(graphs_and_sources())
@settings(max_examples=150, deadline=None)
@one_source_examples
def test_matches_deque_oracle(case):
    g, sources = case
    assert np.array_equal(bfs_distance_matrix(g, sources),
                          deque_oracle(g, sources))


@given(graphs_and_sources())
@settings(max_examples=150, deadline=None)
@one_source_examples
def test_matches_scipy_oracle(case):
    g, sources = case
    got = bfs_distance_matrix(g, sources)
    assert got.dtype == np.int64
    assert np.array_equal(got, scipy_oracle(g, sources))


@pytest.mark.parametrize("count", CHUNK_EDGES)
def test_chunk_boundaries(count):
    rng = random.Random(count)
    # 90 vertices and 70 edges: many components and isolated vertices
    edges = [(rng.randrange(90), rng.randrange(90)) for _ in range(70)]
    g = MultiGraph(90, edges + edges[:3] + [(0, 0)])
    sources = [rng.randrange(g.vertex_count) for _ in range(count)]
    sources[:2] = [5, 5][:count]  # a duplicate source
    got = bfs_distance_matrix(g, sources)
    assert got.shape == (count, g.vertex_count) and got.dtype == np.int64
    assert np.array_equal(got, scipy_oracle(g, sources))
    assert np.array_equal(got, deque_oracle(g, sources))


def test_trailing_arcless_vertices():
    # every source, the arc-less ones included; on 8 vertices every level
    # takes the flag rule, whose scan runs over the arc-less tail
    g = MultiGraph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
    sources = list(range(8))
    assert np.array_equal(bfs_distance_matrix(g, sources),
                          deque_oracle(g, sources))


@pytest.mark.parametrize("name,m", [("petersen", 3), ("k4", 3)])
def test_cover_rows_claim_and_flag(name, m):
    # small frontiers claim, large ones flag: a cover level has both
    c = build_zm_cover(named_graph(name), m)
    rng = random.Random(m)
    sources = rng.sample(range(c.graph.vertex_count), 65)
    assert np.array_equal(bfs_distance_matrix(c.graph, sources),
                          scipy_oracle(c.graph, sources))


def assert_rows_through_table(c, sources):
    got = bfs_distance_matrix(c.graph, sources)
    plain = MultiGraph.from_arrays(c.graph.vertex_count, c.graph.tails,
                                   c.graph.heads)
    assert plain._lift is None and c.graph._lift is not None
    assert np.array_equal(got, bfs_distance_matrix(plain, sources))
    assert np.array_equal(got, scipy_oracle(c.graph, sources))


#: (base, m) with a cover of at most 2**20 vertices: a base loop
#: (cycle:1), a parallel pair (doubled_edge) and two simple bases.
TABLE_COVERS = [(name, m)
                for name, rank in [("cycle:1", 1), ("doubled_edge", 1),
                                   ("k4", 3), ("petersen", 6)]
                for m in (2, 3, 5, 257)
                if named_graph(name).vertex_count * m ** rank <= 1 << 20]


@pytest.mark.parametrize("name,m", TABLE_COVERS)
def test_cover_rows_through_table(name, m):
    # every vertex of a small cover, 12 of a large one
    c = build_zm_cover(named_graph(name), m, size_cap=1 << 20)
    n = c.graph.vertex_count
    sources = list(range(n)) if n <= 64 else random.Random(m).sample(
        range(n), 12)
    assert_rows_through_table(c, sources)


@pytest.mark.parametrize("rank,levels", [(2, 3), (3, 2)])
def test_m2_tower_rows_through_table(rank, levels):
    for level in build_tower(rank, 2, levels).levels[1:]:
        n = level.graph.vertex_count
        assert_rows_through_table(level.cover, [0, 1, n // 2, n - 1])


def test_long_cycle():
    # thousands of levels, each pushing a two-vertex frontier
    n = 4001
    g = MultiGraph(n, [(i, (i + 1) % n) for i in range(n)])
    sources = [0, 1, 2000, n - 1]
    gap = np.abs(np.arange(n)[None, :] - np.array(sources)[:, None])
    assert np.array_equal(bfs_distance_matrix(g, sources),
                          np.minimum(gap, n - gap))
    # and one source alone
    assert np.array_equal(bfs_distance_matrix(g, [2000])[0],
                          np.minimum(gap[2], n - gap[2]))


def test_zero_vertex_graph():
    g = MultiGraph(0)
    got = bfs_distance_matrix(g, [])
    assert got.shape == (0, 0) and got.dtype == np.int64
    with pytest.raises(IndexError):
        bfs_distance_matrix(g, [0])


def test_no_arcs():
    g = MultiGraph(3)
    assert bfs_distance_matrix(g, [2, 0, 2]).tolist() == [
        [UNREACHABLE, UNREACHABLE, 0],
        [0, UNREACHABLE, UNREACHABLE],
        [UNREACHABLE, UNREACHABLE, 0]]


@pytest.mark.parametrize("bad", [-1, 4])
def test_out_of_range_source(bad):
    with pytest.raises(IndexError):
        bfs_distance_matrix(MultiGraph(4, [(0, 1)]), [0, bad])
    with pytest.raises(IndexError):
        bfs_distance_matrix(MultiGraph(4, [(0, 1)]), [bad])


def test_import_leaves_scipy_sparse_unloaded():
    src = os.path.dirname(os.path.dirname(homcover.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, homcover; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert "scipy.sparse" not in out


# -- deck shifts ------------------------------------------------------------


def shift_rows(c, sources, floor=1, ratio=graph._CLAIM_RATIO):
    """(bfs_distance_matrix rows of c's graph with the deck floor at
    `floor` and the claim ratio at `ratio`, the number of levels that
    moved fiber masks)."""
    steps = []
    step = graph._DeckShifts.step

    def counted(self, *args):
        steps.append(1)
        return step(self, *args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_SHIFT_DECK_FLOOR", floor)
        mp.setattr(graph, "_CLAIM_RATIO", ratio)
        mp.setattr(graph._DeckShifts, "step", counted)
        rows = bfs_distance_matrix(c.graph, sources)
    return rows, len(steps)


def assert_shift_rows(c, sources, floor=1, ratio=graph._CLAIM_RATIO):
    """Shift rows equal the scipy oracle and the rows of the table alone."""
    got, steps = shift_rows(c, sources, floor, ratio)
    assert steps > 0
    assert np.array_equal(got, scipy_oracle(c.graph, sources))
    table, no_steps = shift_rows(c, sources, floor=1 << 62, ratio=ratio)
    assert no_steps == 0 and np.array_equal(got, table)


#: Bridgeless bases with loops and parallel edges: two loops at one
#: vertex, a loop beside a parallel pair, a triangle with a loop and a
#: chord.
LOOPED = [MultiGraph(1, [(0, 0), (0, 0)]),
          MultiGraph(2, [(0, 1), (1, 0), (1, 1)]),
          MultiGraph(3, [(0, 1), (1, 2), (2, 0), (1, 1), (0, 2)])]


def cover_sources(draw, c, count=3):
    ids = st.integers(min_value=0, max_value=c.graph.vertex_count - 1)
    return draw(st.lists(ids, min_size=1, max_size=count))


@given(two_edge_connected_multigraphs(), st.sampled_from([2, 3, 5]),
       st.data())
@settings(max_examples=120, deadline=None)
@example(LOOPED[0], 2, None).via("two loops, m = 2: +1 and -1 coincide")
@example(LOOPED[1], 3, None).via("a loop beside a parallel pair")
@example(LOOPED[2], 5, None).via("a loop and a chord")
def test_shift_rows_match_oracle(g, m, data):
    # every cover here has r <= 5, so a deck of at most 3,125 ranks:
    # strides from 1 (contiguous masked ORs) to 625 at m = 5 (views)
    c = build_zm_cover(g, m)
    sources = (cover_sources(data.draw, c) if data is not None
               else [0, c.graph.vertex_count - 1])
    assert_shift_rows(c, sources)


@given(two_edge_connected_multigraphs(max_vertices=3, max_extra_edges=1),
       st.data())
@settings(max_examples=5, deadline=None)
@example(LOOPED[1], None).via("a loop beside a parallel pair")
def test_shift_rows_wide_modulus(g, data):
    # m = 257 and r = 2: a deck of 66,049 ranks, above the floor as it
    # is; the levels of so long a cover are thin, so every level shifts
    c = build_zm_cover(g, 257)
    sources = (cover_sources(data.draw, c, 1) if data is not None
               else [c.graph.vertex_count - 1])
    assert_shift_rows(c, sources, floor=graph._SHIFT_DECK_FLOOR,
                      ratio=1 << 40)


@pytest.mark.parametrize("name,m,shifts", [
    ("k4", 3, False), ("petersen", 3, False), ("complete:6", 2, False),
    ("petersen", 4, True)])
def test_deck_floor(name, m, shifts):
    # the suite's covers (k4 and Petersen at m = 3) keep the gather path;
    # a deck of 4,096 ranks takes shifts
    c = build_zm_cover(named_graph(name), m)
    sources = [0, c.graph.vertex_count // 2]
    got, steps = shift_rows(c, sources, floor=graph._SHIFT_DECK_FLOOR)
    assert (steps > 0) == shifts
    assert np.array_equal(got, scipy_oracle(c.graph, sources))


#: sha256 of the row from vertex 0 of the 531,441-vertex tower level; the
#: same bytes as the table's rows before deck shifts.
TOWER_ROW_SHA256 = (
    "f0407f9867fc052c180df34a9debf5c81aaf4b880018daf8d6b7a24a74c9765e")


def test_tower_row_digest(tower_level):
    rows, steps = shift_rows(tower_level, [0], floor=graph._SHIFT_DECK_FLOOR)
    assert steps > 0
    assert hashlib.sha256(rows[0].tobytes()).hexdigest() == TOWER_ROW_SHA256


def test_tower_row_peak(tower_level):
    # beside the 4.05 MiB row: two masks, the visited mask and the
    # frontier, with no per-arc index array on a large level (18.3 MiB
    # traced when large levels gathered their arcs' targets)
    _rows, peak = traced_peak(
        lambda: bfs_distance_matrix(tower_level.graph, [0]))
    assert peak < 14 << 20
