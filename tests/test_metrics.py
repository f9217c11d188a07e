import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from homcover import (MultiGraph, build_zm_cover, compression_profile,
                      d_T_distance, d_q, d_q_from, d_q_tree_average,
                      named_graph, tree_average_numerators, verify_compare)
from homcover.cover import _residue_dtype
from homcover.errors import InvalidParameter, LengthMismatch, NonConstantNe
from homcover.graph import bfs_distance_matrix
from homcover.metrics import _cyclic_distance

from conftest import two_edge_connected_multigraphs


class TestDT:
    def test_equal(self):
        assert d_T_distance((1, 2, 0), (1, 2, 0), 3) == 0

    def test_m3(self):
        assert d_T_distance((0, 0), (2, 2), 3) == 2

    def test_m5(self):
        assert d_T_distance((0,), (3,), 5) == 2

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            d_T_distance((0,), (1, 2), 3)

    def test_is_a_metric_on_samples(self):
        rng = random.Random(0)
        for _ in range(100):
            m = rng.randrange(2, 8)
            a, b, c = (tuple(rng.randrange(m) for _ in range(4))
                       for _ in range(3))
            assert d_T_distance(a, b, m) == d_T_distance(b, a, m)
            assert d_T_distance(a, c, m) <= \
                d_T_distance(a, b, m) + d_T_distance(b, c, m)


class TestDQ:
    def test_equal_points(self, k4):
        c = build_zm_cover(k4, 3)
        assert d_q(c, 17, 17) == 0

    def test_adjacent_is_one(self, petersen):
        c = build_zm_cover(petersen, 3)
        rng = random.Random(1)
        for _ in range(40):
            E = rng.randrange(c.graph.edge_count)
            t, h = c.graph.endpoints(E)
            if t != h:
                assert d_q(c, t, h) == 1

    def test_doubled_edge_antipodal(self, double):
        c = build_zm_cover(double, 3)
        dist = bfs_distance_matrix(c.graph, range(6))
        found = False
        for x in range(6):
            for y in range(6):
                if dist[x, y] == 3:
                    assert d_q(c, x, y) == 2
                    found = True
        assert found

    def test_row_matches_scalar(self, k4):
        c = build_zm_cover(k4, 3)
        for x in (0, 31, 107):
            row = d_q_from(c, x)
            for y in range(0, 108, 7):
                assert row[y] == d_q(c, x, y)

    @given(two_edge_connected_multigraphs())
    @settings(max_examples=20, deadline=None)
    def test_metric_axioms(self, g):
        c = build_zm_cover(g, 3)
        n = c.graph.vertex_count
        rng = random.Random(2)
        for _ in range(10):
            x, y, z = (rng.randrange(n) for _ in range(3))
            assert d_q(c, x, y) == d_q(c, y, x)
            assert d_q(c, x, z) <= d_q(c, x, y) + d_q(c, y, z)
            assert (d_q(c, x, y) == 0) == (
                c.base_profiles()[x] == c.base_profiles()[y]).all()


def signed_mod_row(c, x):
    """d_Q row through a signed difference taken mod m."""
    prof = c.base_profiles().astype(np.int64)
    diff = (prof - prof[x]) % c.m
    return np.minimum(diff, c.m - diff).sum(axis=1)


class TestResidueWidth:
    """d_Q stays in the unsigned residue dtype, whose top value is m - 1:
    uint8 up to m = 256 and uint16 up to m = 65,536."""

    MODULI = (2, 3, 4, 5, 255, 256, 257, 65536)

    @pytest.mark.parametrize("m", MODULI)
    def test_row_matches_signed_mod(self, double, m):
        c = build_zm_cover(double, m)  # 2m vertices, residues 0..m-1
        n = c.graph.vertex_count
        for x in sorted({0, 1, m // 2, m - 1, m, n - 1}):
            want = signed_mod_row(c, x)
            row = d_q_from(c, x)
            assert row.dtype == np.int64 and np.array_equal(row, want)
            for y in (0, m // 2, m - 1, n - 1):
                assert d_q(c, x, y) == int(want[y])

    @pytest.mark.parametrize("m", MODULI)
    def test_every_residue_pair(self, m):
        vals = np.arange(m) if m <= 257 else np.array(
            [0, 1, 2, m // 2 - 1, m // 2, m // 2 + 1, m - 2, m - 1])
        a = vals.astype(_residue_dtype(m))
        got = _cyclic_distance(a[:, None], a[None, :], m).astype(np.int64)
        z = (vals[:, None] - vals[None, :]) % m
        assert np.array_equal(got, np.minimum(z, m - z))


class TestTreeAverage:
    def test_k4_random_pairs(self, k4):
        c = build_zm_cover(k4, 3)
        rng = random.Random(3)
        for _ in range(25):
            x, y = rng.randrange(108), rng.randrange(108)
            avg = d_q_tree_average(c, x, y, cap=100)
            assert avg.value == Fraction(d_q(c, x, y))
            assert not avg.sampled and avg.trees_used == 16

    def test_doubled_edge_all_pairs(self, double):
        c = build_zm_cover(double, 3)
        for x in range(6):
            for y in range(6):
                assert d_q_tree_average(c, x, y, cap=10).value \
                    == Fraction(d_q(c, x, y))

    def test_bulk_identity(self, k4):
        c = build_zm_cover(k4, 3)
        numer, n_avoid = tree_average_numerators(c, cap=100)
        dq = np.stack([d_q_from(c, x) for x in range(108)])
        assert n_avoid == 8
        assert (numer == n_avoid * dq).all()

    def test_sampled_route_runs(self, k4):
        c = build_zm_cover(k4, 3)
        avg = d_q_tree_average(c, 5, 90, cap=100, sample=8, seed=11)
        assert avg.sampled and avg.trees_used == 8
        assert avg.value >= 0

    def test_trees_counted_once_per_cover(self, k4, monkeypatch):
        import homcover.trees
        from homcover.embed import PsiEmbedding
        from homcover.harness import check_ne_constant
        avoid = homcover.trees.count_trees_avoiding
        calls = []

        def counted(g, e):
            calls.append(e)
            return avoid(g, e)

        monkeypatch.setattr(homcover.trees, "count_trees_avoiding", counted)
        c = build_zm_cover(k4, 3)
        for x, y in [(0, 1), (5, 90), (7, 7)]:
            assert d_q_tree_average(c, x, y, cap=100).value \
                == Fraction(d_q(c, x, y))
        d_q_tree_average(c, 5, 90, cap=100, sample=4, seed=1)
        tree_average_numerators(c, cap=100)
        PsiEmbedding(c, cap=100)
        assert check_ne_constant(c, "k4").passed
        assert calls == list(range(k4.edge_count))
        d_q_tree_average(build_zm_cover(k4, 2), 0, 1, cap=100)
        assert len(calls) == 2 * k4.edge_count

    def test_nonconstant_rejected(self):
        # two triangles sharing a vertex: N_e differs between triangles? no;
        # use a triangle with one doubled edge instead
        g = MultiGraph(3, [[0, 1], [0, 1], [1, 2], [2, 0]])
        from homcover import tree_counts
        assert not tree_counts(g).constant
        c = build_zm_cover(g, 3)
        with pytest.raises(NonConstantNe):
            d_q_tree_average(c, 0, 1, cap=100)


    def test_loop_needs_the_same_count(self):
        # a loop lies in no tree, so its N_e is tau = 2 against 1 for the
        # doubled edge: the average is not d_Q (pair (0, 3) would give 2
        # against 1), so every tree-averaged quantity refuses this base
        from homcover import PsiEmbedding, tree_counts
        from homcover.harness import check_ne_constant, check_treeavg
        g = MultiGraph(2, [[0, 1], [0, 1], [0, 0]])
        counts = tree_counts(g)
        assert counts.avoiding == (1, 1, 2)
        assert counts.constant and counts.common == 1  # non-loop edges only
        c = build_zm_cover(g, 3)
        for build in (lambda: d_q_tree_average(c, 0, 3),
                      lambda: d_q_tree_average(c, 0, 3, sample=5),
                      lambda: tree_average_numerators(c),
                      lambda: PsiEmbedding(c)):
            with pytest.raises(NonConstantNe):
                build()
        rec = check_treeavg(c, "loop", 100)
        assert (rec.trials, rec.violations) == (0, 0)
        assert rec.note == "skipped: tree average requires constant nonzero N_e"
        assert check_ne_constant(c, "loop").passed

    def test_single_loop(self):
        # cycle:1 is one loop, left out by its one tree: N = 1
        c = build_zm_cover(named_graph("cycle:1"), 5)
        numer, n_avoid = tree_average_numerators(c)
        assert n_avoid == 1
        dq = np.stack([d_q_from(c, x) for x in range(5)])
        assert np.array_equal(numer, dq)
        assert d_q_tree_average(c, 0, 2).value == 2

    @pytest.mark.parametrize("x,y", [(-1, 0), (0, -1), (108, 0), (0, 108)])
    def test_vertex_range(self, k4, x, y):
        from homcover import PsiEmbedding
        c = build_zm_cover(k4, 3)
        psi = PsiEmbedding(c, cap=100)
        bad = x or y  # the vertex out of range
        for call in (lambda: d_q_tree_average(c, x, y),
                     lambda: d_q_tree_average(c, x, y, sample=2),
                     lambda: d_q(c, x, y), lambda: d_q_from(c, bad),
                     lambda: psi.distance(x, y), lambda: psi.vector(bad)):
            with pytest.raises(IndexError):
                call()

    @pytest.mark.parametrize("sample", [0, -3])
    def test_sample_below_one(self, k4, sample):
        c = build_zm_cover(k4, 3)
        with pytest.raises(InvalidParameter):
            d_q_tree_average(c, 0, 1, sample=sample)


class TestCompare:
    def test_k4_exhaustive(self, k4):
        c = build_zm_cover(k4, 3)
        rep = verify_compare(c)
        assert rep.pairs_checked == 108 * 108
        assert rep.passed
        assert rep.girth_base == 3

    def test_c15_over_c5(self, c5):
        c = build_zm_cover(c5, 3)
        dist = bfs_distance_matrix(c.graph, range(15))
        for x in range(15):
            for y in range(15):
                d = int(dist[x, y])
                if d < 5:
                    assert d_q(c, x, y) == d
        # antipodal pair on C_15
        x, y = 0, [v for v in range(15) if dist[0, v] == 7][0]
        assert d_q(c, x, y) >= 5
        assert verify_compare(c).passed

    def test_fault_hook(self, k4):
        c = build_zm_cover(k4, 3)
        rep = verify_compare(c, _dq_perturb=1)
        assert not rep.passed
        assert rep.monotone_violations > 0
        assert len(rep.details) > 0

    @pytest.mark.parametrize("name", ["complete:1", "path:1"])
    def test_base_without_cycle(self, name):
        # infinite base girth: every pair is below it, so d_Q must equal d
        rep = verify_compare(build_zm_cover(named_graph(name), 3))
        assert rep.girth_base == math.inf
        assert rep.pairs_checked == 1 and rep.passed

    @given(two_edge_connected_multigraphs())
    @settings(max_examples=15, deadline=None)
    def test_random_bases(self, g):
        c = build_zm_cover(g, 3, size_cap=1 << 20)
        srcs = range(0, c.graph.vertex_count,
                     max(1, c.graph.vertex_count // 64))
        assert verify_compare(c, sources=list(srcs)).passed


class TestCompressionProfile:
    def test_k4_below_girth(self, k4):
        c = build_zm_cover(k4, 3)
        prof = compression_profile(c)
        assert prof.mode == "dQ_vs_d"
        for row in prof.rows:
            if row.t < 3:
                assert row.min_val == row.max_val == Fraction(row.t)
            assert 0 < row.pair_count
            assert row.min_val <= row.max_val
        assert [row.t for row in prof.rows] == sorted(r.t for r in prof.rows)

    def test_c15_antipodal_row(self, c5):
        c = build_zm_cover(c5, 3)
        prof = compression_profile(c)
        row = prof.row(7)
        # all pairs at distance 7 sit symmetrically on the 15-cycle
        x = 0
        dist = bfs_distance_matrix(c.graph, [0])[0]
        y = [v for v in range(15) if dist[v] == 7][0]
        assert row.min_val == row.max_val == Fraction(d_q(c, x, y))

    def test_l2_mode(self, k4):
        c = build_zm_cover(k4, 3)
        prof = compression_profile(c, mode="l2")
        assert prof.mode == "l2_vs_d"
        for row in prof.rows:
            if row.t < 3:
                assert row.min_val == row.max_val == Fraction(2 * row.t)

    def test_bad_mode(self, k4):
        c = build_zm_cover(k4, 3)
        with pytest.raises(InvalidParameter):
            compression_profile(c, mode="nope")

    def test_restricted_sources(self, petersen):
        c = build_zm_cover(petersen, 3)
        prof = compression_profile(c, sources=[0, 1, 2], mode="dq")
        assert prof.row(0).pair_count == 3
        for row in prof.rows:
            if row.t < 5:
                assert row.min_val == row.max_val == Fraction(row.t)
