import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from homcover import (CoverGraph, MultiGraph, build_zm_cover,
                      compression_profile, d_T_distance, d_q, d_q_from,
                      d_q_tree_average, named_graph, tree_average_numerators,
                      verify_compare)
from homcover.cover import _residue_dtype
from homcover.errors import (CapExceeded, InvalidParameter, LengthMismatch,
                             NonConstantNe)
from homcover.embed import binary_embed_matrix
from homcover.graph import bfs_distance_matrix
from homcover import harness, metrics
from homcover.metrics import (_bfs_row, _cyclic_distance, _orbit_rows,
                              _source_rows)
from homcover.trees import DEFAULT_TREE_CAP

from conftest import (traced_peak, two_edge_connected_multigraphs,
                      unblocked_d_q_from)


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
        import homcover.cover
        from homcover.embed import PsiEmbedding
        from homcover.harness import check_ne_constant
        count = homcover.cover.tree_counts
        calls = []

        def counted(g):
            calls.append(g)
            return count(g)

        monkeypatch.setattr(homcover.cover, "tree_counts", counted)
        c = build_zm_cover(k4, 3)
        for x, y in [(0, 1), (5, 90), (7, 7)]:
            assert d_q_tree_average(c, x, y, cap=100).value \
                == Fraction(d_q(c, x, y))
        d_q_tree_average(c, 5, 90, cap=100, sample=4, seed=1)
        tree_average_numerators(c, cap=100)
        PsiEmbedding(c, cap=100)
        assert check_ne_constant(c, "k4").passed
        assert calls == [c.base]
        d_q_tree_average(build_zm_cover(k4, 2), 0, 1, cap=100)
        assert len(calls) == 2

    @pytest.mark.parametrize("name,m", [("doubled_edge", 3), ("k4", 3),
                                        ("c5", 2), ("petersen", 2),
                                        ("complete:5", 2), ("cycle:1", 5)])
    def test_exact_weights_are_the_enumerated_counts(self, name, m):
        from homcover.metrics import _all_tree_weights, _avoidance_weights
        from homcover.trees import _cotrees
        c = build_zm_cover(named_graph(name), m)
        w, tau = _all_tree_weights(c, DEFAULT_TREE_CAP)
        want, count = _avoidance_weights(c, _cotrees(c.base))
        assert w.dtype == np.int64 and np.array_equal(w, want)
        assert tau == count == c.tree_counts().total
        assert d_q_tree_average(c, 0, c.graph.vertex_count - 1).trees_used \
            == tau

    @pytest.mark.parametrize("name", ["k4", "petersen"])
    def test_cap_below_tau_refused(self, name):
        from homcover.harness import check_treeavg
        c = build_zm_cover(named_graph(name), 2)
        tau = c.tree_counts().total
        message = f"tau = {tau} exceeds cap {tau - 1}"
        for run in (lambda: d_q_tree_average(c, 0, 1, cap=tau - 1),
                    lambda: tree_average_numerators(c, cap=tau - 1)):
            with pytest.raises(CapExceeded) as err:
                run()
            assert str(err.value) == message
        rec = check_treeavg(c, name, tau - 1)
        assert (rec.trials, rec.violations) == (0, 0)
        assert rec.note == f"skipped: {message}"
        assert d_q_tree_average(c, 0, 1, cap=tau).trees_used == tau
        assert tree_average_numerators(c, cap=tau)[1] == \
            c.tree_counts().common
        assert check_treeavg(c, name, tau).passed

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


class TestRowMemory:
    """Compare and the dq profile hold one BFS row at a time: on the
    40,960-vertex Petersen m = 4 cover, with its profiles and orbit
    representatives built beforehand, a row is 320 KiB."""

    @pytest.fixture(scope="class")
    def cover(self):
        c = build_zm_cover(named_graph("petersen"), 4)
        c.base_profiles()
        c.orbit_reps()
        return c

    @staticmethod
    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_dq_profile(self, cover):
        assert self.peak(lambda: compression_profile(cover, None, "dq")) < 6 << 20

    def test_compare_100_sources(self, cover):
        srcs = random.Random(0).sample(range(cover.graph.vertex_count), 100)
        assert self.peak(lambda: verify_compare(cover, srcs)) < 4 << 20


class TestRowBlocks:
    """d_q_from against the table-scan oracle on covers that the old row
    kernel read in several row blocks of OLD_BLOCK bytes of profiles,
    from sources at and beside the block edges."""

    OLD_BLOCK = 1 << 18

    # cycle:n has one cotree edge: n * m vertices and n edges; each cover
    # spans three to seven blocks, the last one partial, and m = 257 has
    # uint16 residues
    @pytest.mark.parametrize("m,n", [(2, 700), (255, 60), (256, 60),
                                     (257, 60)])
    def test_matches_unblocked_sum(self, m, n):
        c = build_zm_cover(named_graph(f"cycle:{n}"), m)
        prof = c.base_profiles()
        assert prof.dtype == _residue_dtype(m)
        rows = self.OLD_BLOCK // prof[0].nbytes
        size = len(prof)
        assert 3 * rows < size and size % rows
        for x in (0, 1, rows - 1, rows, size // 2, size - size % rows,
                  size - 2, size - 1):
            got = d_q_from(c, x)
            assert got.dtype == np.int64
            assert np.array_equal(got, unblocked_d_q_from(c, x))

    def test_tower_level_peak_near_the_row(self, tower_level):
        # the unblocked sum held four (|V~|, |E(X)|) uint8 temporaries,
        # 27.4 MiB traced here; the row from the factors holds slices
        row, peak = traced_peak(lambda: d_q_from(tower_level, 12345))
        assert np.array_equal(row, unblocked_d_q_from(tower_level, 12345))
        assert peak < row.nbytes + (2 << 20)


class TestFactoredRows:
    """d_Q rows and pairs read from the deck part and the spanning tree,
    never from the whole profile table."""

    @pytest.mark.parametrize("m,extra", [(2, 4), (3, 4), (5, 4), (256, 1),
                                         (257, 1)])
    def test_matches_table_scan(self, m, extra):
        # at m = 256 and 257 a base with more than two cotree edges would
        # exceed the size cap
        @given(two_edge_connected_multigraphs(max_extra_edges=extra))
        @settings(max_examples=12, deadline=None)
        def check(g):
            c = build_zm_cover(g, m)
            deck = c.deck_size
            rng = random.Random(c.graph.vertex_count)
            for v in range(g.vertex_count):
                for x in (v * deck, v * deck + rng.randrange(deck)):
                    assert np.array_equal(d_q_from(c, x),
                                          unblocked_d_q_from(c, x))
                    assert np.array_equal(c.profile_row(x),
                                          c.base_profiles()[x])
        check()

    def test_long_cycle_row(self, long_cycle_cover):
        # the 400,000-cycle over cycle:200000 at m = 2, whose profile table
        # cannot be allocated: every distance below 200,000 is held by two
        # vertices, and d_Q = d
        c = long_cycle_cover
        c.deck_profiles(), c.tree_steps()
        row, peak = traced_peak(lambda: d_q_from(c, 123457))
        assert row.dtype == np.int64 and row.size == 400_000
        want = np.full(200_001, 2)
        want[[0, -1]] = 1
        assert np.array_equal(np.bincount(row), want)
        assert peak < 5 * row.nbytes
        assert c._profiles is None

    def test_cycle_rows_are_graph_distances(self):
        # at m = 2 the cover of a cycle is the doubled cycle, and d_Q = d
        c = build_zm_cover(named_graph("cycle:2000"), 2)
        sources = [0, 1, 999, 1999, 2000, 3001, 3999]
        d = bfs_distance_matrix(c.graph, sources)
        for x, d_row in zip(sources, d):
            assert np.array_equal(d_q_from(c, x), d_row)
        assert c._profiles is None

    @pytest.mark.parametrize("case", ["petersen-m4", "tower"])
    def test_reads_build_no_table(self, case, tower_level):
        if case == "tower":
            c = CoverGraph(tower_level.base, tower_level.m,
                           tower_level.tree0, tower_level.graph)
        else:
            c = build_zm_cover(named_graph("petersen"), 4)
        n = c.graph.vertex_count
        sources = random.Random(4).sample(range(n), 8)
        calls = [c.orbit_reps, lambda: d_q(c, sources[0], sources[1]),
                 lambda: d_q_from(c, sources[2]),
                 lambda: d_q_tree_average(c, sources[0], sources[3],
                                          sample=3),
                 lambda: verify_compare(c, sources),
                 lambda: verify_compare(c, sources[:2], _dq_perturb=1),
                 lambda: compression_profile(c, sources, "dq")]
        for call in calls:
            call()
            assert c._profiles is None


def profile_from_rows(d_rows, vals):
    """(t, pairs, min, max) per distance t of the stacked (d, value)
    rows, from one sort of the pairs by distance."""
    d, v = np.concatenate(d_rows), np.concatenate(vals)
    order = np.argsort(d, kind="stable")
    d, v = d[order], v[order]
    starts = np.flatnonzero(np.diff(d, prepend=-1))
    counts = np.diff(np.append(starts, len(d)))
    return [(int(t), int(k), Fraction(int(lo)), Fraction(int(hi)))
            for t, k, lo, hi in zip(d[starts], counts,
                                    np.minimum.reduceat(v, starts),
                                    np.maximum.reduceat(v, starts))]


class TestLongDiameter:
    """A triangle and a 30-cycle joined at vertex 0, at m = 3: 288 cover
    vertices and diameter 49.  The first orbit's rows reach distance 48
    and a later one's 49, so the profile's sums grow twice."""

    @pytest.fixture(scope="class")
    def cover(self):
        loop = [[0, 3], *([v, v + 1] for v in range(3, 31)), [31, 0]]
        return build_zm_cover(MultiGraph(32, [[0, 1], [1, 2], [2, 0], *loop]),
                              3)

    @staticmethod
    def rows(prof):
        return [(r.t, r.pair_count, r.min_val, r.max_val) for r in prof.rows]

    def test_exhaustive_dq(self, cover):
        n = cover.graph.vertex_count
        d = bfs_distance_matrix(cover.graph, range(n))
        assert d[0].max() == 48 and d.max() == 49
        want = profile_from_rows(d, [unblocked_d_q_from(cover, x)
                                     for x in range(n)])
        assert self.rows(compression_profile(cover, None, "dq")) == want

    def test_sampled_l2(self, cover):
        sources = random.Random(49).sample(range(cover.graph.vertex_count),
                                           60)
        binary = binary_embed_matrix(cover)
        want = profile_from_rows(
            bfs_distance_matrix(cover.graph, sources),
            [(binary != binary[s]).sum(axis=1) for s in sources])
        assert self.rows(compression_profile(cover, sources, "l2")) == want


class TestTowerProfileMemory:
    def test_warm_dq_profile(self, tower_level):
        # 32 sources, as in the tower benchmark; with |V~| + 1 long sums
        # and an unblocked d_Q row this peaked at 43.6 MiB
        n = tower_level.graph.vertex_count
        sources = sorted(random.Random(1).sample(range(n), 32))
        prof, peak = traced_peak(
            lambda: compression_profile(tower_level, sources, "dq"))
        assert sum(r.pair_count for r in prof.rows) == 32 * n
        assert peak < 30 << 20


class TestRowEngine:
    """`_orbit_rows` and `_source_rows`, the two generators that decide
    which computed row stands for which source."""

    CASES = [("doubled_edge", 5), ("k4", 3), ("petersen", 2), ("cycle:1", 7)]

    @staticmethod
    def orders(n):
        srcs = random.Random(n).sample(range(n), min(n, 12))
        return [sorted(srcs), sorted(srcs, reverse=True),
                srcs + srcs[:4] + [srcs[0]] * 3]

    @pytest.mark.parametrize("name,m", CASES)
    def test_source_rows_are_the_own_rows(self, name, m):
        c = build_zm_cover(named_graph(name), m)
        for srcs in self.orders(c.graph.vertex_count):
            got = list(_source_rows(c, srcs, d_q_from))
            assert [s for s, _ in got] == srcs
            for s, row in got:
                assert np.array_equal(row, d_q_from(c, s))
            for s, row in _source_rows(c, srcs, _bfs_row):
                assert np.array_equal(row, bfs_distance_matrix(c.graph, [s])[0])

    @pytest.mark.parametrize("name,m", CASES)
    def test_orbit_rows_stand_for_their_sources(self, name, m):
        c = build_zm_cover(named_graph(name), m)
        for srcs in self.orders(c.graph.vertex_count):
            reps, rows = _orbit_rows(c, np.array(srcs))
            assert np.array_equal(
                reps, c.orbit_reps()[np.array(srcs) // c.deck_size])
            got = list(rows)
            assert [r for r, *_ in got] == sorted(set(reps.tolist()))
            assert sum(w for *_, w in got) == len(srcs)
            for rep, d_row, dq_row, w in got:
                assert w == np.count_nonzero(reps == rep)
                assert np.array_equal(d_row,
                                      bfs_distance_matrix(c.graph, [rep])[0])
                assert np.array_equal(dq_row, d_q_from(c, rep))


@pytest.fixture
def row_counts(monkeypatch):
    """Counts of the BFS and d_Q rows computed, wrapped at every module
    name the checks and profiles call them by."""
    counts = {"bfs": 0, "dq": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(metrics, "bfs_distance_matrix",
                        counted("bfs", metrics.bfs_distance_matrix))
    dq = counted("dq", metrics.d_q_from)
    monkeypatch.setattr(metrics, "d_q_from", dq)
    monkeypatch.setattr(harness, "d_q_from", dq)
    return counts


class TestRowCounts:
    """How many rows each check and profile computes."""

    @staticmethod
    def runs(c, sources):
        fibers = [s // c.deck_size for s in sources]
        return 1 + sum(a != b for a, b in zip(fibers, fibers[1:]))

    @pytest.mark.parametrize("check", [harness.check_isometry,
                                       harness.check_l2])
    @pytest.mark.parametrize("name", ["k4", "petersen"])
    def test_hamming_checks_read_one_dq_row_per_fiber_run(self, check, name,
                                                          row_counts):
        c = build_zm_cover(named_graph(name), 3)
        sources = harness._sources_for(c, 100, 5)
        if sources is None:
            sources = range(c.graph.vertex_count)
        assert check(c, name, 100, 5).passed
        assert row_counts == {"bfs": 0, "dq": self.runs(c, sources)}
        assert row_counts["dq"] <= c.base.vertex_count

    def test_treeavg_reads_one_dq_row_per_fiber(self, row_counts):
        c = build_zm_cover(named_graph("k4"), 3)
        assert harness.check_treeavg(c, "k4", DEFAULT_TREE_CAP).passed
        assert row_counts == {"bfs": 0, "dq": 4}

    def test_l2_profile_reads_one_bfs_row_per_fiber(self, row_counts):
        c = build_zm_cover(named_graph("petersen"), 3)
        srcs = [5000, 17, 7289, 17, 3650, 900, 5000, 18, 2]
        compression_profile(c, srcs, "l2")
        fibers = {s // c.deck_size for s in srcs}
        assert row_counts == {"bfs": len(fibers), "dq": 0}

    @pytest.mark.parametrize("mode", ["compare", "dq"])
    def test_weight_only_reductions_read_one_row_pair_per_orbit(
            self, mode, row_counts):
        c = build_zm_cover(named_graph("petersen"), 3)
        srcs = [5000, 17, 7289, 17, 3650, 900, 5000, 18, 2]
        if mode == "compare":
            assert verify_compare(c, srcs).passed
        else:
            compression_profile(c, srcs, "dq")
        orbits = len(set(c.orbit_reps()[np.array(srcs) // c.deck_size]))
        assert row_counts == {"bfs": orbits, "dq": orbits}

    def test_tower_level_is_one_orbit(self, tower_level, row_counts):
        n = tower_level.graph.vertex_count
        sources = sorted(random.Random(1).sample(range(n), 32))
        assert verify_compare(tower_level, sources).passed
        assert row_counts == {"bfs": 1, "dq": 1}
        compression_profile(tower_level, sources, "dq")
        assert row_counts == {"bfs": 2, "dq": 2}


class TestPinnedReports:
    """Reports on unsorted sources with repeats, as computed when each
    check walked its sources its own way."""

    SOURCES = [5000, 17, 7289, 17, 3650, 900, 5000, 18, 2]
    DQ = [(0, 9, 0, 0), (1, 27, 1, 1), (2, 54, 2, 2), (3, 108, 3, 3),
          (4, 216, 4, 4), (5, 432, 5, 5), (6, 864, 5, 6), (7, 1728, 5, 7),
          (8, 2916, 6, 8), (9, 4644, 6, 9), (10, 6876, 6, 10),
          (11, 9108, 8, 11), (12, 11286, 8, 11), (13, 11070, 9, 12),
          (14, 8208, 10, 12), (15, 4698, 11, 13), (16, 2403, 12, 13),
          (17, 855, 12, 14), (18, 108, 14, 14)]

    @pytest.fixture(scope="class")
    def cover(self):
        return build_zm_cover(named_graph("petersen"), 3)

    @staticmethod
    def rows(prof):
        return [(r.t, r.pair_count, r.min_val, r.max_val) for r in prof.rows]

    def test_compare(self, cover):
        rep = verify_compare(cover, self.SOURCES)
        assert (rep.pairs_checked, rep.details) == (65610, [])
        assert rep.passed

    def test_compare_fault(self, cover):
        rep = verify_compare(cover, self.SOURCES, max_details=4,
                             _dq_perturb=1)
        assert (rep.pairs_checked, rep.iff_violations,
                rep.equality_violations, rep.monotone_violations) == (
                    65610, 216, 405, 8019)
        assert rep.details == [
            {"source": 5000, "target": t, "d": d, "d_q": d + 1}
            for t, d in [(93, 9), (95, 8), (96, 10), (145, 11)]]

    def test_dq_profile(self, cover):
        assert self.rows(compression_profile(cover, self.SOURCES,
                                             "dq")) == self.DQ

    def test_l2_profile(self, cover):
        # the binary embedding is an isometry onto 2 d_Q
        assert self.rows(compression_profile(cover, self.SOURCES, "l2")) == [
            (t, k, 2 * lo, 2 * hi) for t, k, lo, hi in self.DQ]


class TestSourceValidation:
    """Sources must be integers in range; nothing else is cast to one."""

    CALLS = [verify_compare,
             lambda c, s: compression_profile(c, s, "dq"),
             lambda c, s: compression_profile(c, s, "l2")]

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("sources", [
        [1.5], [2.0], ["3"], [True], [0, False], [np.True_], [np.float64(1)],
        np.array([1.0]), np.array([True]), np.array(["3"]), [[1, 2]]],
        ids=repr)
    def test_non_integer_refused(self, call, sources):
        c = build_zm_cover(named_graph("k4"), 3)
        with pytest.raises(InvalidParameter, match="not an integer"):
            call(c, sources)

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("sources", [
        [-1], [108], [2**63], [2**70], [3, -2**70],
        np.array([2**64 - 1], dtype=np.uint64), np.array([-1, 5])],
        ids=repr)
    def test_out_of_range_refused(self, call, sources):
        c = build_zm_cover(named_graph("k4"), 3)
        with pytest.raises(IndexError, match="source .* out of range"):
            call(c, sources)

    @pytest.mark.parametrize("call", CALLS)
    def test_integers_accepted(self, call):
        c = build_zm_cover(named_graph("k4"), 3)
        want = call(c, [3, 50, 107])
        for sources in ([np.int64(3), 50, np.uint8(107)], (3, 50, 107),
                        np.array([3, 50, 107], dtype=np.uint16),
                        np.array([[3, 50, 107]]),
                        iter([3, 50, 107])):
            assert call(c, sources) == want


class TestSampleSources:
    @pytest.mark.parametrize("n,samples,seed", [(10, 3, 0), (7290, 100, 9),
                                                (2001, 2000, 4)])
    def test_one_seeded_draw(self, n, samples, seed):
        assert metrics._sample_sources(n, samples, seed) == sorted(
            random.Random(seed).sample(range(n), samples))

    @pytest.mark.parametrize("n,samples", [(0, 0), (10, 10), (10, 11)])
    def test_every_vertex_when_samples_cover_them(self, n, samples):
        assert metrics._sample_sources(n, samples, 3) is None

    def test_suite_samples_above_the_threshold_only(self):
        small = build_zm_cover(named_graph("k4"), 3)
        big = build_zm_cover(named_graph("petersen"), 3)
        assert harness._sources_for(small, 5, 1) is None
        assert harness._sources_for(big, 10_000, 1) is None
        assert harness._sources_for(big, 5, 1) == sorted(
            random.Random(1).sample(range(7290), 5))
