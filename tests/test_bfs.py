"""The BFS engine against two independent oracles.

`bfs_distance_matrix` runs one pass per source, pushing from the
frontier at every level and keeping each new vertex once through a
`claim` slot (small frontiers) or a one-byte flag per vertex (large
ones).  The oracles know nothing of either: a pure-Python deque BFS over
`adjacency_of`, and scipy's Dijkstra on the CSR adjacency matrix.  On a
cover the engine lifts the base's arcs through the cover's arc table;
there a plain copy of the cover's edges, which steps through its own
table with deck 1, is a third oracle.
"""

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
                      build_zm_cover, named_graph)
from homcover.graph import UNREACHABLE

from conftest import multigraphs

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
