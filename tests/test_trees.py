import math

import pytest
from hypothesis import given, settings
from scipy import stats

from homcover import (MultiGraph, NotConnected, count_spanning_trees,
                      count_trees_avoiding, cycle_graph, enumerate_spanning_trees,
                      named_graph, path_graph, sample_uniform_tree,
                      some_spanning_tree, tree_counts)
from homcover.errors import CapExceeded, NotSpanningTree

from conftest import connected_multigraphs, spanning_tree_sets


class TestSomeSpanningTree:
    def test_triangle_tie_break(self):
        t = some_spanning_tree(cycle_graph(3))
        assert t.tree_edges == frozenset({0, 1})
        assert t.cotree == (2,)

    def test_k4_star(self, k4):
        t = some_spanning_tree(k4)
        assert t.tree_edges == frozenset({0, 1, 2})  # edges at vertex 0

    def test_doubled_edge(self, double):
        t = some_spanning_tree(double)
        assert t.tree_edges == frozenset({0})
        assert t.cotree == (1,)

    def test_disconnected(self):
        with pytest.raises(NotConnected):
            some_spanning_tree(MultiGraph(3, [[0, 1]]))

    @given(connected_multigraphs())
    @settings(max_examples=50, deadline=None)
    def test_structure(self, g):
        t = some_spanning_tree(g)
        assert len(t.tree_edges) == g.vertex_count - 1
        assert t.cotree == tuple(sorted(set(range(g.edge_count)) - t.tree_edges))
        assert not any(g.is_loop(e) for e in t.tree_edges)

    @given(connected_multigraphs())
    @settings(max_examples=30, deadline=None)
    def test_walk_to_root(self, g):
        t = some_spanning_tree(g)
        for v in range(g.vertex_count):
            w = t.walk_to_root(g, v)
            assert w.start == v and w.end(g) == 0
            assert all(a >> 1 in t.tree_edges for a in w.steps)


class TestCounts:
    def test_k4_against_enumeration(self, k4):
        oracle = spanning_tree_sets(k4)
        assert len(oracle) == 16
        assert count_spanning_trees(k4) == 16

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_cycles(self, n):
        assert count_spanning_trees(cycle_graph(n)) == n

    def test_doubled_edge(self, double):
        assert count_spanning_trees(double) == 2

    def test_avoiding_k4(self, k4):
        oracle = spanning_tree_sets(k4)
        for e in range(6):
            expected = sum(1 for t in oracle if e not in t)
            assert expected == 8
            assert count_trees_avoiding(k4, e) == 8

    def test_avoiding_cycle(self):
        g = cycle_graph(6)
        assert all(count_trees_avoiding(g, e) == 1 for e in range(6))

    def test_avoiding_bridge(self):
        g = path_graph(3)
        assert count_trees_avoiding(g, 0) == 0

    def test_avoiding_loop(self):
        g = MultiGraph(2, [[0, 1], [0, 1], [1, 1]])
        assert count_trees_avoiding(g, 2) == count_spanning_trees(g) == 2

    def test_tree_counts_k4(self, k4):
        tc = tree_counts(k4)
        assert tc.total == 16 and tc.constant and tc.common == 8
        assert tc.avoiding == (8,) * 6

    def test_tree_counts_cayley(self):
        tc = tree_counts(named_graph("cycle:3"))
        assert tc.constant
        from homcover import cayley_zm_power
        tc = tree_counts(cayley_zm_power(2, 3))
        assert tc.constant and tc.common is not None

    def test_nonconstant_example(self):
        # path with a doubled middle edge: bridges have N_e = 0
        g = MultiGraph(4, [[0, 1], [1, 2], [1, 2], [2, 3]])
        tc = tree_counts(g)
        assert tc.total == 2
        assert not tc.constant and tc.common is None
        assert tc.avoiding == (0, 1, 1, 0)

    @given(connected_multigraphs(max_vertices=5, max_extra_edges=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration_oracle(self, g):
        assert count_spanning_trees(g) == len(spanning_tree_sets(g))

    @given(connected_multigraphs(max_vertices=5, max_extra_edges=4))
    @settings(max_examples=30, deadline=None)
    def test_containment_identity(self, g):
        # each tree has |V|-1 edges, so trees-containing-e sums to (|V|-1)*tau
        tau = count_spanning_trees(g)
        containing = sum(tau - count_trees_avoiding(g, e)
                         for e in range(g.edge_count))
        assert containing == (g.vertex_count - 1) * tau

    @given(connected_multigraphs(max_vertices=5, max_extra_edges=3))
    @settings(max_examples=30, deadline=None)
    def test_deletion_contraction(self, g):
        # tau(g) = tau(g - e) + tau(g / e) for any non-loop edge
        for e in range(g.edge_count):
            t, h = g.endpoints(e)
            if t == h:
                continue
            rest = [list(g.endpoints(f)) for f in range(g.edge_count) if f != e]
            deleted = MultiGraph(g.vertex_count, rest)
            relabel = lambda v: min(t, h) if v == max(t, h) else (
                v - 1 if v > max(t, h) else v)
            contracted = MultiGraph(
                g.vertex_count - 1,
                [[relabel(a), relabel(b)] for a, b in rest])
            try:
                tau_del = count_spanning_trees(deleted)
            except NotConnected:
                tau_del = 0
            assert count_spanning_trees(g) == tau_del \
                + count_spanning_trees(contracted)


class TestEnumeration:
    def test_c4(self):
        trees = list(enumerate_spanning_trees(cycle_graph(4), cap=10))
        assert len(trees) == 4

    def test_k4_matches_oracle(self, k4):
        trees = list(enumerate_spanning_trees(k4, cap=100))
        assert {t.tree_edges for t in trees} == set(spanning_tree_sets(k4))

    def test_cap(self, k4):
        with pytest.raises(CapExceeded):
            list(enumerate_spanning_trees(k4, cap=10))

    def test_deterministic_order(self, k4):
        a = [t.tree_edges for t in enumerate_spanning_trees(k4, cap=100)]
        b = [t.tree_edges for t in enumerate_spanning_trees(k4, cap=100)]
        assert a == b


class TestUniformSampling:
    def test_c3_chi_square(self):
        g = cycle_graph(3)
        counts = {}
        for seed in range(1000):
            t = sample_uniform_tree(g, seed)
            counts[t.tree_edges] = counts.get(t.tree_edges, 0) + 1
        assert len(counts) == 3
        expected = 1000 / 3
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < stats.chi2.ppf(0.999, df=2)

    def test_doubled_edge_both_trees(self, double):
        seen = {sample_uniform_tree(double, s).tree_edges for s in range(1000)}
        assert seen == {frozenset({0}), frozenset({1})}

    def test_tree_input_unique(self):
        g = path_graph(5)
        trees = {sample_uniform_tree(g, s).tree_edges for s in range(20)}
        assert trees == {frozenset(range(4))}

    def test_k4_uniform(self, k4):
        counts = {}
        for seed in range(3200):
            t = sample_uniform_tree(k4, seed)
            counts[t.tree_edges] = counts.get(t.tree_edges, 0) + 1
        assert len(counts) == 16
        expected = 3200 / 16
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < stats.chi2.ppf(0.999, df=15)


def test_tree_validation(k4):
    from homcover.trees import _tree_from_edge_set
    # edges (0,1),(0,2),(1,2) form a triangle and miss vertex 3
    with pytest.raises(NotSpanningTree):
        _tree_from_edge_set(k4, [0, 1, 3])
    with pytest.raises(NotSpanningTree):
        _tree_from_edge_set(k4, [0, 1])  # wrong cardinality
