import random
from fractions import Fraction

import numpy as np
import pytest

from homcover import (HalfIntVector, PsiEmbedding, assemble_family,
                      binary_embed_matrix, build_zm_cover, cycle_cut_embed,
                      d_q, d_q_from, embed_point_l1, embed_point_psi,
                      l1_to_l2, named_graph)
from homcover.errors import (InvalidParameter, LengthMismatch,
                             NonBinaryCoordinates, NonConstantNe)
from homcover.graph import MultiGraph, bfs_distance_matrix


class TestCycleCut:
    def test_m3_all_pairs(self):
        vs = [cycle_cut_embed(k, 3) for k in range(3)]
        for i in range(3):
            for j in range(3):
                want = Fraction(min((i - j) % 3, (j - i) % 3))
                assert vs[i].l1_distance(vs[j]) == want

    def test_m4_antipodal(self):
        assert cycle_cut_embed(0, 4).l1_distance(cycle_cut_embed(2, 4)) == 2

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9])
    def test_support_size(self, m):
        for k in range(m):
            v = cycle_cut_embed(k, m)
            assert len(v.entries) == m // 2
            assert all(d == 1 for _, d in v.entries)  # doubled 1/2 entries

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cycle_cut_embed(3, 3)
        with pytest.raises(ValueError):
            cycle_cut_embed(-1, 3)


class TestHalfIntVector:
    def test_norm_and_dict_round_trip(self):
        v = cycle_cut_embed(1, 5)
        assert v.l1_norm() == Fraction(1)  # two entries of 1/2
        w = HalfIntVector.from_dict(v.as_dict(), v.dim, v.block_layout)
        assert w == v

    def test_dim_mismatch(self):
        a = cycle_cut_embed(0, 3)
        b = cycle_cut_embed(0, 4)
        with pytest.raises(LengthMismatch):
            a.l1_distance(b)


class TestMainEmbedding:
    def test_basepoint_blocks(self, k4):
        c = build_zm_cover(k4, 3)
        v = embed_point_l1(c, c.basepoint)
        # residue 0 in every per-edge block: coordinates are the 0-arc cut
        arc0 = {int(x) for x in np.asarray(
            [coord for coord, _ in cycle_cut_embed(0, 3).entries])}
        for coord, doubled in v.entries:
            assert doubled == 1
            assert coord % 3 in arc0

    def test_k4_exhaustive_isometry(self, k4):
        c = build_zm_cover(k4, 3)
        B = binary_embed_matrix(c)
        dq = np.stack([d_q_from(c, x) for x in range(108)])
        ham = (B[:, None, :] != B[None, :, :]).sum(axis=2)
        assert (ham == 2 * dq).all()

    def test_matches_sparse_vectors(self, k4):
        c = build_zm_cover(k4, 3)
        rng = random.Random(4)
        for _ in range(30):
            x, y = rng.randrange(108), rng.randrange(108)
            dist = embed_point_l1(c, x).l1_distance(embed_point_l1(c, y))
            assert dist == Fraction(d_q(c, x, y))

    def test_adjacent_distance_one(self, petersen):
        c = build_zm_cover(petersen, 3)
        for E in range(0, c.graph.edge_count, 97):
            t, h = c.graph.endpoints(E)
            if t != h:
                assert embed_point_l1(c, t).l1_distance(
                    embed_point_l1(c, h)) == 1


class TestL2:
    def test_equal_and_adjacent(self, k4):
        c = build_zm_cover(k4, 3)
        u = l1_to_l2(embed_point_l1(c, 0))
        assert u.squared_distance(u) == 0
        t, h = c.graph.endpoints(0)
        a = l1_to_l2(embed_point_l1(c, t))
        b = l1_to_l2(embed_point_l1(c, h))
        assert a.squared_distance(b) == 2

    def test_k4_all_pairs(self, k4):
        c = build_zm_cover(k4, 3)
        vecs = [l1_to_l2(embed_point_l1(c, x)) for x in range(108)]
        dq = np.stack([d_q_from(c, x) for x in range(108)])
        rng = random.Random(5)
        for _ in range(200):
            x, y = rng.randrange(108), rng.randrange(108)
            assert vecs[x].squared_distance(vecs[y]) == 2 * dq[x, y]

    def test_rejects_nonbinary(self):
        v = HalfIntVector(entries=((0, 2),), dim=3, block_layout=(("b", 0, 3),))
        with pytest.raises(NonBinaryCoordinates):
            l1_to_l2(v)


class TestPsi:
    def test_k4_all_pairs(self, k4):
        c = build_zm_cover(k4, 3)
        psi = PsiEmbedding(c, cap=100)
        dq = np.stack([d_q_from(c, x) for x in range(108)])
        rng = random.Random(6)
        for _ in range(60):
            x, y = rng.randrange(108), rng.randrange(108)
            assert psi.distance(x, y) == Fraction(int(dq[x, y]))

    def test_doubled_edge_all_36(self, double):
        c = build_zm_cover(double, 3)
        psi = PsiEmbedding(c, cap=10)
        for x in range(6):
            for y in range(6):
                assert psi.distance(x, y) == Fraction(d_q(c, x, y))

    def test_identical_for_equal_points(self, double):
        c = build_zm_cover(double, 3)
        psi = PsiEmbedding(c, cap=10)
        assert psi.vector(4) == psi.vector(4)
        assert psi.distance(4, 4) == 0

    def test_wrapper(self, double):
        c = build_zm_cover(double, 3)
        v = embed_point_psi(c, 2, trees_cap=10)
        assert v.l1_norm() >= 0

    def test_requires_constant_counts(self):
        g = MultiGraph(3, [[0, 1], [0, 1], [1, 2], [2, 0]])
        c = build_zm_cover(g, 3)
        with pytest.raises(NonConstantNe):
            PsiEmbedding(c, cap=100)


class TestFamily:
    def test_single_component(self, double):
        c = build_zm_cover(double, 3)
        fam = assemble_family([c])
        assert fam.offsets[0] == 0
        for x in range(6):
            for y in range(6):
                assert fam.distance(0, x, 0, y) == Fraction(d_q(c, x, y))

    def test_two_components_separated(self, double, c5):
        c1 = build_zm_cover(double, 3)
        c2 = build_zm_cover(c5, 3)
        fam = assemble_family([c1, c2])
        diam1 = max(d_q(c1, x, y) for x in range(6) for y in range(6))
        diam2 = max(d_q(c2, x, y) for x in range(15) for y in range(15))
        for x in range(6):
            for y in range(15):
                assert fam.distance(0, x, 1, y) > max(diam1, diam2)

    def test_within_component_tower(self):
        from homcover import build_tower
        tower = build_tower(2, 2, 3)
        covers = [lvl.cover for lvl in tower.levels[1:]]
        fam = assemble_family(covers)
        rng = random.Random(7)
        for i, c in enumerate(covers):
            n = c.graph.vertex_count
            for _ in range(20):
                x, y = rng.randrange(n), rng.randrange(n)
                assert fam.distance(i, x, i, y) == Fraction(d_q(c, x, y))

    def test_mixed_m_rejected(self, double):
        c1 = build_zm_cover(double, 2)
        c2 = build_zm_cover(double, 3)
        with pytest.raises(InvalidParameter):
            assemble_family([c1, c2])

    def test_empty_family_rejected(self):
        with pytest.raises(InvalidParameter):
            assemble_family([])
