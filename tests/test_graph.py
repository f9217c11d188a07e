import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from homcover import (MultiGraph, ParseError, Walk, bfs_distance_matrix,
                      cayley_zm_power, complete_graph, cycle_graph, girth,
                      graph_document, is_connected, is_two_edge_connected,
                      load_graph, named_graph, path_graph)
from homcover.errors import InvalidParameter, PathMismatch, SizeCapExceeded
from homcover.graph import UNREACHABLE

from conftest import (connected_multigraphs, girth_oracle, has_parallel_pair,
                      multigraphs, to_networkx)


class TestDocumentRoundTrip:
    def test_doubled_edge(self):
        g = load_graph({"vertices": 2, "edges": [[0, 1], [0, 1]]})
        assert g.vertex_count == 2 and g.edge_count == 2
        assert g.endpoints(0) == (0, 1) and g.endpoints(1) == (0, 1)

    def test_loop(self):
        g = load_graph({"vertices": 1, "edges": [[0, 0]]})
        assert g.is_loop(0)

    def test_k4(self, k4):
        doc = {"vertices": 4,
               "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}
        g = load_graph(doc)
        assert graph_document(g) == graph_document(k4)

    def test_round_trip(self, petersen):
        doc = graph_document(petersen)
        json.dumps(doc)  # serializable
        g = load_graph(doc)
        assert graph_document(g) == doc

    @pytest.mark.parametrize("doc", [
        {},
        {"vertices": 2},
        {"vertices": "x", "edges": []},
        {"vertices": 2, "edges": [[0]]},
        {"vertices": 2, "edges": [[0, 1]], "labels": ["a", "b"]},
    ])
    def test_bad_documents(self, doc):
        with pytest.raises((ParseError, IndexError)):
            load_graph(doc)

    def test_out_of_range_endpoint(self):
        with pytest.raises(IndexError):
            load_graph({"vertices": 2, "edges": [[0, 2]]})


class TestEdgeEntries:
    """Edge entries are integers, or the graph is refused: no float is
    truncated and no bool or string is read as a vertex id."""

    @pytest.mark.parametrize("edges", [
        [[0.7, 1.9], [1, 2]],
        [[0, 1.0]],
        [[True, False]],
        [["0", "1"]],
        [[1 << 70, 0]],
        [[0, 1], [2]],
    ], ids=["floats", "one-float", "bools", "strings", "beyond-int64",
            "ragged"])
    def test_rejected(self, edges):
        with pytest.raises(ParseError):
            MultiGraph(3, edges)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, np.str_])
    def test_rejected_arrays(self, dtype):
        ends = np.array([0, 1]).astype(dtype)
        with pytest.raises(ParseError):
            MultiGraph.from_arrays(3, ends, ends)
        with pytest.raises(ParseError):
            MultiGraph(3, np.stack([ends, ends], axis=1))

    def test_uint64_beyond_int64_is_out_of_range(self):
        ends = np.array([0, 1 << 63], dtype=np.uint64)
        with pytest.raises(IndexError):
            MultiGraph.from_arrays(3, ends, ends[::-1])

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.uint64])
    def test_other_integers_widen(self, dtype):
        g = MultiGraph.from_arrays(3, np.array([0, 1], dtype=dtype),
                                   np.array([1, 2], dtype=dtype))
        assert g.tails.dtype == g.heads.dtype == np.int64
        assert g.endpoints(1) == (1, 2)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_index_arrays_kept(self, dtype):
        table = np.array([0, 1, 1, 2], dtype=dtype)
        g = MultiGraph.from_arrays(3, table[0::2], table[1::2])
        assert g.tails.dtype == dtype and np.shares_memory(g.tails, table)


class TestAdjacency:
    def test_loop_appears_twice_opposite(self):
        g = MultiGraph(1, [[0, 0]])
        arcs = g.adjacency_of(0)
        assert len(arcs) == 2
        assert sorted(d for _, d, _ in arcs) == [-1, 1]

    def test_nonloop_once_per_endpoint(self, k4):
        for e in range(k4.edge_count):
            t, h = k4.endpoints(e)
            assert sum(1 for ee, _, _ in k4.adjacency_of(t) if ee == e) == 1
            assert sum(1 for ee, _, _ in k4.adjacency_of(h) if ee == e) == 1

    def test_degrees(self, petersen):
        assert list(petersen.degrees()) == [3] * 10


class TestDistances:
    def test_c5(self, c5):
        assert bfs_distance_matrix(c5, [0])[0].tolist() == [0, 1, 2, 2, 1]

    def test_k4(self, k4):
        assert bfs_distance_matrix(k4, [0])[0].tolist() == [0, 1, 1, 1]

    def test_doubled(self, double):
        assert bfs_distance_matrix(double, [0])[0].tolist() == [0, 1]

    def test_disconnected(self):
        g = MultiGraph(3, [[0, 1]])
        assert bfs_distance_matrix(g, [0])[0].tolist() == [0, 1, UNREACHABLE]

    def test_matrix_marks_unreachable_exactly(self):
        g = MultiGraph(4, [[0, 1], [2, 3]])
        mat = bfs_distance_matrix(g, [0, 3])
        assert mat.dtype == np.int64
        assert mat.tolist() == [[0, 1, UNREACHABLE, UNREACHABLE],
                                [UNREACHABLE, UNREACHABLE, 1, 0]]

    @given(connected_multigraphs())
    @settings(max_examples=40, deadline=None)
    def test_matrix_matches_networkx(self, g):
        import networkx as nx
        h = to_networkx(g)
        mat = bfs_distance_matrix(g, range(g.vertex_count))
        for s in range(g.vertex_count):
            lengths = nx.single_source_shortest_path_length(h, s)
            for v in range(g.vertex_count):
                assert mat[s, v] == lengths[v]

    @given(connected_multigraphs())
    @settings(max_examples=40, deadline=None)
    def test_lipschitz_on_edges(self, g):
        dist = bfs_distance_matrix(g, [0])[0]
        for e in range(g.edge_count):
            t, h = g.endpoints(e)
            assert abs(int(dist[t]) - int(dist[h])) <= 1


class TestGirth:
    def test_named_values(self, k4, petersen, double):
        assert girth(k4) == 3
        assert girth(petersen) == 5
        assert girth(double) == 2

    def test_loop_and_tree(self):
        assert girth(MultiGraph(1, [[0, 0]])) == 1
        assert girth(path_graph(4)) == math.inf

    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_cycles(self, n):
        assert girth(cycle_graph(n)) == n

    @given(connected_multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, g):
        assert girth(g) == girth_oracle(g)

    @given(multigraphs(max_vertices=8, max_edges=12))
    @settings(max_examples=150, deadline=None)
    def test_parallel_pair_matches_unique_oracle(self, g):
        mask = g.tails != g.heads
        lo = np.minimum(g.tails[mask], g.heads[mask])
        hi = np.maximum(g.tails[mask], g.heads[mask])
        code = lo * g.vertex_count + hi
        assert has_parallel_pair(g) == (len(np.unique(code)) < len(code))


class TestConnectivity:
    def test_examples(self, k4, double):
        assert is_two_edge_connected(k4)
        assert is_two_edge_connected(double)
        assert not is_two_edge_connected(path_graph(3))

    def test_connected(self, petersen):
        assert is_connected(petersen)
        assert not is_connected(MultiGraph(2, []))

    def test_bridge_in_otherwise_cyclic_graph(self):
        # two triangles joined by a bridge
        g = MultiGraph(6, [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3],
                           [2, 3]])
        assert is_connected(g)
        assert not is_two_edge_connected(g)

    def test_loop_not_a_bridge(self):
        g = MultiGraph(2, [[0, 1], [0, 1], [1, 1]])
        assert is_two_edge_connected(g)

    @pytest.mark.parametrize("g", [
        *map(named_graph, ["doubled_edge", "k4", "c5", "petersen", "cycle:1",
                           "complete:1", "path:4", "cycle:9"]),
        MultiGraph(6, [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]),
        MultiGraph(4, [[0, 1], [1, 2], [2, 0]]),
        MultiGraph(4, [[1, 2], [2, 3], [3, 1], [1, 1]]),
        MultiGraph(2, []),
    ], ids=["doubled_edge", "k4", "c5", "petersen", "cycle1", "complete1",
            "path4", "cycle9", "two_cycles", "isolated_last",
            "isolated_first", "two_isolated"])
    def test_connected_matches_bfs_row(self, g):
        row = bfs_distance_matrix(g, [0])[0]
        assert is_connected(g) == bool((row != UNREACHABLE).all())

    @given(multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_connected_matches_bfs_row_random(self, g):
        row = bfs_distance_matrix(g, [0])[0]
        assert is_connected(g) == bool((row != UNREACHABLE).all())


class TestCayley:
    def test_triangle(self):
        g = cayley_zm_power(1, 3)
        assert (g.vertex_count, g.edge_count) == (3, 3)
        assert girth(g) == 3

    def test_z3_squared(self):
        g = cayley_zm_power(2, 3)
        assert (g.vertex_count, g.edge_count) == (9, 18)
        assert set(g.degrees().tolist()) == {4}
        assert is_connected(g)

    def test_z2_squared_is_4_cycle(self):
        g = cayley_zm_power(2, 2)
        assert (g.vertex_count, g.edge_count) == (4, 4)
        assert girth(g) == 4

    def test_m2_regularity(self):
        g = cayley_zm_power(3, 2)
        assert (g.vertex_count, g.edge_count) == (8, 12)
        assert set(g.degrees().tolist()) == {3}

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            cayley_zm_power(10, 3, size_cap=100)


class TestWalks:
    def test_vertices_and_end(self, k4):
        w = Walk(0, (0, 6))  # 0 -(0,1)-> 1 -(1,2)-> 2
        assert w.vertices(k4) == [0, 1, 2]
        assert w.end(k4) == 2
        back = Walk(2, (7, 1))  # the same edges backward
        assert back.vertices(k4) == [2, 1, 0]

    def test_invalid_step(self, k4):
        w = Walk(0, (10,))  # edge (2,3) does not touch 0
        with pytest.raises(PathMismatch):
            w.vertices(k4)
        with pytest.raises(PathMismatch):
            Walk(0, (1,)).vertices(k4)  # edge (0,1) backward ends at 0

    @pytest.mark.parametrize("arc", [-1, 12])
    def test_arc_out_of_range(self, k4, arc):
        with pytest.raises(IndexError):
            Walk(0, (arc,)).vertices(k4)


@pytest.mark.parametrize("n", [0, -1])
def test_cycle_graph_needs_a_vertex(n):
    with pytest.raises(InvalidParameter):
        cycle_graph(n)


def test_named_graph_parametric():
    assert named_graph("cycle:7").vertex_count == 7
    assert named_graph("complete:5").edge_count == 10
    with pytest.raises(ParseError):
        named_graph("nosuch")


def test_complete_graph_edge_order():
    g = complete_graph(4)
    assert [g.endpoints(e) for e in range(3)] == [(0, 1), (0, 2), (0, 3)]
