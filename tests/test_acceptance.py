"""End-to-end acceptance checks.

One test per numbered criterion; each prints a single pass/fail line
(visible with ``pytest -s``) and enforces its runtime budget.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from homcover import (PsiEmbedding, binary_embed_matrix, build_tower,
                      build_zm_cover, compression_profile, cycle_cut_embed,
                      d_q_from, embed_point_l1, girth, is_connected,
                      lift_path, make_congruence_pair, named_graph,
                      some_spanning_tree, tree_average_numerators,
                      tree_counts, verify_compare)
from homcover.cli import main
from homcover.graph import bfs_distance_matrix

from conftest import spanning_tree_sets


class _Budget:
    def __init__(self, name, seconds):
        self.name, self.seconds = name, seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{self.name}: {status} ({elapsed:.2f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name} exceeded budget: {elapsed:.1f}s"
        return False


@pytest.fixture(scope="module")
def k4_cover():
    return build_zm_cover(named_graph("k4"), 3)


@pytest.fixture(scope="module")
def petersen_cover():
    return build_zm_cover(named_graph("petersen"), 3)


def test_criterion_1_cycle_embedding_isometry():
    with _Budget("criterion 1 (cycle embedding isometry)", 1.0):
        for m in range(2, 17):
            vecs = [cycle_cut_embed(k, m) for k in range(m)]
            for i in range(m):
                for j in range(m):
                    want = Fraction(min((i - j) % m, (j - i) % m))
                    assert vecs[i].l1_distance(vecs[j]) == want


def test_criterion_2_cover_closed_forms():
    with _Budget("criterion 2 (cover closed forms)", 1.0):
        c = build_zm_cover(named_graph("c5"), 3)
        assert c.graph.vertex_count == 15
        assert is_connected(c.graph)
        assert set(c.graph.degrees().tolist()) == {2}
        assert girth(c.graph) == 15

        c = build_zm_cover(named_graph("doubled_edge"), 3)
        assert c.graph.vertex_count == 6
        assert is_connected(c.graph)
        assert set(c.graph.degrees().tolist()) == {2}
        assert girth(c.graph) == 6


def test_criterion_3_k4_exhaustive(k4_cover):
    with _Budget("criterion 3 (K4 exhaustive, m=3)", 30.0):
        g = named_graph("k4")
        oracle = spanning_tree_sets(g)
        assert len(oracle) == 16
        tc = tree_counts(g)
        assert tc.total == 16
        for e in range(6):
            assert tc.avoiding[e] == sum(1 for t in oracle if e not in t) == 8

        c = k4_cover
        n = c.graph.vertex_count
        dist = bfs_distance_matrix(c.graph, range(n))
        dq = np.stack([d_q_from(c, x) for x in range(n)])
        assert (dq <= dist).all()
        rep = verify_compare(c)
        assert rep.passed and rep.pairs_checked == n * n
        below = dist < 3
        assert (dq[below] == dist[below]).all()

        numer, n_avoid = tree_average_numerators(c, cap=100)
        assert (numer == n_avoid * dq).all()  # the averages agree exactly


def test_criterion_4_embedding_isometry(k4_cover, petersen_cover):
    with _Budget("criterion 4 (l1/l2 embedding isometry)", 120.0):
        rng = random.Random(41)
        for c, n_sparse in ((k4_cover, 200),):
            n = c.graph.vertex_count
            B = binary_embed_matrix(c)
            dq = np.stack([d_q_from(c, x) for x in range(n)])
            ham = (B[:, None, :] != B[None, :, :]).sum(axis=2)
            assert (ham == 2 * dq).all()  # l1 isometry and squared-l2 = 2 d_Q
            for _ in range(n_sparse):
                x, y = rng.randrange(n), rng.randrange(n)
                assert embed_point_l1(c, x).l1_distance(
                    embed_point_l1(c, y)) == Fraction(int(dq[x, y]))

        c = petersen_cover
        n = c.graph.vertex_count
        assert n == 7290
        B = binary_embed_matrix(c)
        sources = sorted(rng.sample(range(n), 120))
        for s in sources:
            dq_row = d_q_from(c, s)
            ham = (B != B[s]).sum(axis=1, dtype=np.int64)
            assert (ham == 2 * dq_row).all()
        for _ in range(50):
            x, y = rng.randrange(n), rng.randrange(n)
            assert embed_point_l1(c, x).l1_distance(
                embed_point_l1(c, y)) == Fraction(int(d_q_from(c, x)[y]))


def test_criterion_5_psi_cross_check(k4_cover):
    with _Budget("criterion 5 (tree-averaged embedding)", 30.0):
        for c in (k4_cover, build_zm_cover(named_graph("doubled_edge"), 3)):
            n = c.graph.vertex_count
            psi = PsiEmbedding(c, cap=100)
            N = psi.n_avoid
            M = psi.matrix()
            dq = np.stack([d_q_from(c, x) for x in range(n)])
            ham = (M[:, None, :] != M[None, :, :]).sum(axis=2)
            assert (ham == 2 * N * dq).all()
            rng = random.Random(5)
            for _ in range(40):
                x, y = rng.randrange(n), rng.randrange(n)
                assert psi.distance(x, y) == Fraction(int(dq[x, y]))


def test_criterion_6_congruent_lifts(k4_cover, petersen_cover):
    with _Budget("criterion 6 (congruent path lifting)", 60.0):
        for c in (k4_cover, petersen_cover):
            g, tree = c.base, c.tree0
            rng = random.Random(61)
            for _ in range(1000):
                w1, w2 = make_congruence_pair(g, tree, 3, rng, congruent=True)
                start = c.encode_vertex(
                    w1.start, [rng.randrange(3) for _ in range(c.r)])
                assert lift_path(c, w1, start)[0] == lift_path(c, w2, start)[0]
            distinct = 0
            for _ in range(1000):
                w1, w2 = make_congruence_pair(g, tree, 3, rng, congruent=False)
                start = c.encode_vertex(
                    w1.start, [rng.randrange(3) for _ in range(c.r)])
                if lift_path(c, w1, start)[0] != lift_path(c, w2, start)[0]:
                    distinct += 1
            assert distinct >= 1


def test_criterion_7_tower_desk_scale():
    with _Budget("criterion 7 (tower to 531441 vertices)", 600.0):
        tower = build_tower(2, 3, 2, size_cap=1 << 23)
        sizes = [lvl.graph.vertex_count for lvl in tower.levels]
        assert sizes == [9, 531441]
        girths = [lvl.girth_value for lvl in tower.levels]
        assert girths[0] == 3
        assert all(a < b for a, b in zip(girths, girths[1:]))

        c = tower.levels[1].cover
        rng = random.Random(71)
        sources = sorted(rng.sample(range(c.graph.vertex_count), 100))
        prof = compression_profile(c, sources)
        base_girth = girths[0]
        for row in prof.rows:
            if row.t < base_girth:
                assert row.min_val == row.max_val == Fraction(row.t)

        # every pair of the level, one BFS and d_Q row per fiber
        rep = verify_compare(c)
        assert rep.pairs_checked == 531441 ** 2
        assert rep.passed


def test_criterion_8_m2_regression():
    with _Budget("criterion 8 (m=2 tower regression)", 120.0):
        tower = build_tower(2, 2, 3)
        girths = [lvl.girth_value for lvl in tower.levels]
        assert len(tower.levels) == 3
        assert all(a < b for a, b in zip(girths, girths[1:]))

        rng = random.Random(81)
        for lvl in tower.levels:
            g = lvl.graph
            # counting: matrix-tree vs brute-force enumeration
            tc = tree_counts(g)
            assert tc.total == len(spanning_tree_sets(g))
            assert tc.constant

            c = build_zm_cover(g, 2)
            n = c.graph.vertex_count
            dist = bfs_distance_matrix(c.graph, range(n))
            dq = np.stack([d_q_from(c, x) for x in range(n)])
            assert (dq <= dist).all()
            assert verify_compare(c).passed
            numer, n_avoid = tree_average_numerators(c, cap=1000)
            assert (numer == n_avoid * dq).all()

            B = binary_embed_matrix(c)
            ham = (B[:, None, :] != B[None, :, :]).sum(axis=2)
            assert (ham == 2 * dq).all()
            psi = PsiEmbedding(c, cap=1000)
            for _ in range(20):
                x, y = rng.randrange(n), rng.randrange(n)
                assert psi.distance(x, y) == Fraction(int(dq[x, y]))

            tree = c.tree0
            for _ in range(1000):
                w1, w2 = make_congruence_pair(g, tree, 2, rng, congruent=True)
                start = c.encode_vertex(
                    w1.start, [rng.randrange(2) for _ in range(c.r)])
                assert lift_path(c, w1, start)[0] == lift_path(c, w2, start)[0]


def test_criterion_9_report_determinism(tmp_path):
    with _Budget("criterion 9 (report determinism)", 300.0):
        reports = []
        for threads in ("1", "4"):
            out = tmp_path / f"report-threads{threads}.json"
            code = main(["suite", "run", "--seed", "7",
                         "--threads", threads, "--out", str(out)])
            assert code == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
