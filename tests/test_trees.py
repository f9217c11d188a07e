import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from homcover import (MultiGraph, NotConnected, build_zm_cover,
                      cayley_zm_power, count_spanning_trees,
                      count_trees_avoiding, cycle_graph,
                      enumerate_spanning_trees, named_graph, path_graph,
                      sample_uniform_tree, some_spanning_tree, tree_counts)
from homcover.errors import CapExceeded, NotSpanningTree
from homcover.metrics import _avoidance_weights
from homcover.trees import (_bareiss_det, _cotrees, _sampled_cotrees,
                            _tree_from_edge_set)

from conftest import (connected_multigraphs, enumerate_spanning_trees_oracle,
                      multigraphs, sample_uniform_tree_oracle,
                      spanning_tree_sets, tree_counts_oracle, walk_to_root)

#: Connected bases for the oracle comparisons: loops, a parallel pair,
#: bridges, a single vertex, and the Petersen graph's 2,000 trees.
ORACLE_BASES = {
    **{name: (lambda name=name: named_graph(name))
       for name in ("k4", "c5", "petersen", "doubled_edge", "cycle:1",
                    "complete:1", "path:3")},
    "loop_pair": lambda: MultiGraph(2, [[0, 1], [0, 1], [0, 0]]),
}

def some_spanning_tree_oracle(g):
    """The edges of `some_spanning_tree` by its first loop, which read
    each edge's ends through `MultiGraph.endpoints`; None when g is not
    connected."""
    comp = list(range(g.vertex_count))

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    chosen = []
    for e in range(g.edge_count):
        t, h = g.endpoints(e)
        if t == h:
            continue
        rt, rh = find(t), find(h)
        if rt != rh:
            comp[rt] = rh
            chosen.append(e)
            if len(chosen) == g.vertex_count - 1:
                break
    return chosen if len(chosen) == g.vertex_count - 1 else None


#: tracemalloc peak, in bytes, of streaming the 16,807 trees of
#: complete:7 into _avoidance_weights: twice the 0.34 MB that the
#: recursive generator enumerator peaked at.  The list of all the trees
#: alone takes about 24 MB.
LAZY_PEAK_BOUND = 2 * 336_649


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

    @pytest.mark.parametrize("name", sorted(ORACLE_BASES) + [
        "cycle:200", "complete:6", "cover:petersen:3"])
    def test_matches_per_edge_loop(self, name):
        if name.startswith("cover:"):
            _kind, base, m = name.split(":")
            g = build_zm_cover(named_graph(base), int(m)).graph
        else:
            g = ORACLE_BASES.get(name, lambda: named_graph(name))()
        want = some_spanning_tree_oracle(g)
        assert sorted(some_spanning_tree(g).tree_edges) == want

    @given(multigraphs())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_edge_loop_on_multigraphs(self, g):
        want = some_spanning_tree_oracle(g)
        if want is None:
            with pytest.raises(NotConnected):
                some_spanning_tree(g)
        else:
            assert sorted(some_spanning_tree(g).tree_edges) == want

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
            w = walk_to_root(t, g, v)
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


#: Connected bases for the adjugate counts against the deletion oracle:
#: dense, long, bridged and single-vertex graphs, a Cayley graph, and two
#: multigraphs with a loop, a bridge and a parallel pair.
COUNT_BASES = {
    **{name: (lambda name=name: named_graph(name))
       for name in ("doubled_edge", "k4", "c5", "petersen", "complete:5",
                    "complete:8", "complete:30", "cycle:50", "path:5",
                    "cycle:1")},
    "cayley_zm_power(2, 3)": lambda: cayley_zm_power(2, 3),
    "loop_bridge_pair": lambda: MultiGraph(
        4, [[0, 1], [1, 2], [1, 2], [2, 3], [3, 3]]),
    "pair_loops_bridge": lambda: MultiGraph(
        4, [[0, 0], [0, 1], [1, 0], [1, 2], [2, 2], [2, 0], [0, 3]]),
}


class TestAdjugateCounts:
    """tree_counts from one elimination against one determinant per edge."""

    @staticmethod
    def assert_matches_oracle(g):
        tc = tree_counts(g)
        total, avoiding = tree_counts_oracle(g)
        assert (tc.total, tc.avoiding) == (total, avoiding)
        assert count_spanning_trees(g) == total
        non_loop = {a for e, a in enumerate(avoiding) if not g.is_loop(e)}
        assert tc.constant == (len(non_loop) <= 1)
        assert tc.common == (next(iter(non_loop)) if tc.constant and non_loop
                             else None)

    @pytest.mark.parametrize("name", sorted(COUNT_BASES))
    def test_named_bases(self, name):
        self.assert_matches_oracle(COUNT_BASES[name]())

    @given(connected_multigraphs(max_vertices=7, max_extra_edges=6))
    @settings(max_examples=150, deadline=None)
    def test_connected_multigraphs(self, g):
        self.assert_matches_oracle(g)

    @pytest.mark.parametrize("e", [-1, 6, 100])
    def test_avoiding_edge_out_of_range(self, k4, e):
        with pytest.raises(IndexError):
            count_trees_avoiding(k4, e)

    @pytest.mark.parametrize("g", [MultiGraph(3, [[0, 1], [1, 1]]),
                                   MultiGraph(0, [])],
                             ids=["disconnected", "empty"])
    def test_refuses_disconnected(self, g):
        with pytest.raises(NotConnected):
            tree_counts(g)
        with pytest.raises(NotConnected):
            count_spanning_trees(g)
        if g.edge_count:
            with pytest.raises(NotConnected):
                count_trees_avoiding(g, 0)

    def test_adjugate_beside_the_determinant(self):
        # [B | I] ends with adj(B) = d B^-1 in place of I, also after a
        # row swap
        for mat in ([[2, -1, 0], [-1, 2, -1], [0, -1, 1]],
                    [[0, 2], [3, 5]], [[0, 1, 2], [0, 3, 4], [5, 6, 7]]):
            n = len(mat)
            aug = [row + [int(i == j) for j in range(n)]
                   for i, row in enumerate(mat)]
            d = _bareiss_det(aug)
            assert d == fraction_det(mat)
            adj = [row[n:] for row in aug]
            assert [[sum(a * b for a, b in zip(row, col))
                     for col in zip(*adj)] for row in mat] == \
                [[d * (i == j) for j in range(n)] for i in range(n)]


def fraction_det(mat) -> int:
    """Determinant by Gaussian elimination over Fraction, swapping in the
    first nonzero pivot: an oracle for trees._bareiss_det."""
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    assert det.denominator == 1
    return int(det)


@st.composite
def zero_pivot_matrices(draw):
    """Square integer matrices, 1x1 to 5x5, with a zero leading entry."""
    n = draw(st.integers(1, 5))
    mat = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
           for _ in range(n)]
    mat[0][0] = 0
    return mat


class TestBareissDet:
    # count_spanning_trees never swaps rows: the reduced Laplacian of a
    # connected graph is positive definite, so no pivot is zero

    @given(zero_pivot_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_elimination(self, mat):
        want = fraction_det(mat)
        assert _bareiss_det([row[:] for row in mat]) == want

    @pytest.mark.parametrize("mat,det", [
        ([[0]], 0),
        ([[0, 1], [1, 0]], -1),
        ([[0, 2], [3, 5]], -6),
        ([[0, 1, 2], [0, 3, 4], [5, 6, 7]], -10),
        ([[1, 2, 3], [2, 4, 7], [1, 5, 2]], -3),  # zero pivot at step 1
        ([[0, 1], [0, 2]], 0),  # no nonzero entry below: singular
        ([[0, 1, 1], [1, 0, 1], [1, 1, 2]], 0),  # singular after a swap
    ])
    def test_zero_pivot_cases(self, mat, det):
        assert fraction_det(mat) == det
        assert _bareiss_det(mat) == det


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

    @pytest.mark.parametrize("name", sorted(ORACLE_BASES))
    def test_matches_recursive_oracle(self, name):
        g = ORACLE_BASES[name]()
        got = list(enumerate_spanning_trees(g))
        assert got == list(enumerate_spanning_trees_oracle(g))
        assert len(got) == count_spanning_trees(g)

    @pytest.mark.parametrize("name", sorted(ORACLE_BASES))
    def test_cotrees_match_oracle(self, name):
        g = ORACLE_BASES[name]()
        want = [t.cotree for t in enumerate_spanning_trees_oracle(g)]
        assert list(_cotrees(g)) == want
        assert list(_cotrees(g, cap=len(want))) == want
        if len(want) > 1:
            with pytest.raises(CapExceeded):
                next(_cotrees(g, cap=len(want) - 1))

    @given(connected_multigraphs())
    @settings(max_examples=60, deadline=None)
    def test_cotrees_match_oracle_on_multigraphs(self, g):
        want = [t.cotree for t in enumerate_spanning_trees_oracle(g)]
        assert list(_cotrees(g, cap=len(want))) == want
        with pytest.raises(CapExceeded):
            next(_cotrees(g, cap=len(want) - 1))

    def test_cotrees_refuse_disconnected(self):
        with pytest.raises(NotConnected):
            next(_cotrees(MultiGraph(3, [[0, 1]])))

    def test_streams_trees(self):
        c = build_zm_cover(named_graph("complete:7"), 2)
        tracemalloc.start()
        try:
            _w, count = _avoidance_weights(c, _cotrees(c.base))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 16_807
        assert peak < LAZY_PEAK_BOUND


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

    @pytest.mark.parametrize("name", sorted(ORACLE_BASES))
    def test_matches_adjacency_oracle(self, name):
        g = ORACLE_BASES[name]()
        for seed in range(200):
            assert sample_uniform_tree(g, seed) == \
                sample_uniform_tree_oracle(g, seed)

    @pytest.mark.parametrize("name", sorted(ORACLE_BASES))
    def test_sampled_cotrees_match_oracle(self, name):
        g = ORACLE_BASES[name]()
        want = [sample_uniform_tree_oracle(g, s).cotree for s in range(200)]
        assert list(_sampled_cotrees(g, range(200))) == want

    def test_sampled_cotrees_one_vertex(self):
        g = MultiGraph(1, [[0, 0], [0, 0]])
        assert list(_sampled_cotrees(g, range(3))) == [(0, 1)] * 3
        assert sample_uniform_tree(g, 5).cotree == (0, 1)

    @pytest.mark.parametrize("g", [MultiGraph(3, [[0, 1], [1, 1]]),
                                   MultiGraph(0, [])],
                             ids=["disconnected", "empty"])
    def test_sampling_refuses_before_any_draw(self, g):
        seeds = iter(range(5))
        with pytest.raises(NotConnected):
            next(_sampled_cotrees(g, seeds))
        assert next(seeds) == 0  # no seed was drawn
        with pytest.raises(NotConnected):
            sample_uniform_tree(g, 0)

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
    # edges (0,1),(0,2),(1,2) form a triangle and miss vertex 3
    with pytest.raises(NotSpanningTree):
        _tree_from_edge_set(k4, [0, 1, 3])
    with pytest.raises(NotSpanningTree):
        _tree_from_edge_set(k4, [0, 1])  # wrong cardinality
    with pytest.raises(NotSpanningTree):
        _tree_from_edge_set(MultiGraph(2, [[0, 0], [0, 1]]), [0])  # a loop


@pytest.mark.parametrize("ids", [[-1, 0, 1], [0, 1, 6], [0, 1, -7]])
def test_tree_edge_out_of_range(k4, ids):
    # a negative id must not wrap to the last edge
    with pytest.raises(IndexError):
        _tree_from_edge_set(k4, ids)
