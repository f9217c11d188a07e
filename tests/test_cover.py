import random

import numpy as np
import pytest
from hypothesis import given, settings

from homcover import (MultiGraph, Walk, boundary_mod_m, build_zm_cover,
                      chain_mod_m, cloud_map, cycle_graph, girth,
                      has_m_repeated_edge, is_connected, is_m_congruent,
                      is_two_edge_connected, lift_path, named_graph,
                      path_graph, phi_profile, project_edge, project_vertex, signed_edge_counts,
                      some_spanning_tree)
from homcover.cover import MAX_M
from homcover.errors import (EndpointMismatch, NotTwoEdgeConnected,
                             PathMismatch, SizeCapExceeded,
                             UnsupportedModulus)
from homcover.metrics import (d_q, d_q_from, tree_average_numerators,
                              verify_compare)
from homcover.trees import _tree_from_edge_set

from conftest import two_edge_connected_multigraphs


def random_base_walk(g, rng, length):
    cur = rng.randrange(g.vertex_count)
    steps = []
    start = cur
    for _ in range(length):
        arcs = g.adjacency_of(cur)
        e, d, nbr = arcs[rng.randrange(len(arcs))]
        steps.append((e, d))
        cur = nbr
    return Walk(start, tuple(steps))


class TestConstruction:
    def test_doubled_edge_is_c6(self, double):
        c = build_zm_cover(double, 3)
        g = c.graph
        assert (g.vertex_count, g.edge_count) == (6, 6)
        assert is_connected(g)
        assert set(g.degrees().tolist()) == {2}
        assert girth(g) == 6

    def test_c5_is_c15(self, c5):
        c = build_zm_cover(c5, 3)
        g = c.graph
        assert (g.vertex_count, g.edge_count) == (15, 15)
        assert is_connected(g)
        assert set(g.degrees().tolist()) == {2}
        assert girth(g) == 15

    def test_k4_counts(self, k4):
        c = build_zm_cover(k4, 3)
        assert c.r == 3
        assert (c.graph.vertex_count, c.graph.edge_count) == (108, 162)
        assert set(c.graph.degrees().tolist()) == {3}
        assert is_connected(c.graph)

    def test_degree_preserved(self, petersen):
        c = build_zm_cover(petersen, 3)
        assert set(c.graph.degrees().tolist()) == {3}
        assert c.graph.vertex_count == 10 * 3 ** 6 == 7290

    def test_rejects_bad_m(self, k4):
        with pytest.raises(ValueError):
            build_zm_cover(k4, 1)

    def test_rejects_bridges(self):
        with pytest.raises(NotTwoEdgeConnected):
            build_zm_cover(path_graph(3), 3)

    def test_size_cap(self, petersen):
        with pytest.raises(SizeCapExceeded):
            build_zm_cover(petersen, 3, size_cap=1000)

    def test_loop_base(self):
        g = MultiGraph(1, [[0, 0]])
        c = build_zm_cover(g, 3)
        assert (c.graph.vertex_count, c.graph.edge_count) == (3, 3)
        assert girth(c.graph) == 3

    @given(two_edge_connected_multigraphs())
    @settings(max_examples=25, deadline=None)
    def test_counts_and_local_iso(self, g):
        c = build_zm_cover(g, 3)
        deck = 3 ** c.r
        assert c.graph.vertex_count == g.vertex_count * deck
        assert c.graph.edge_count == g.edge_count * deck
        assert is_connected(c.graph)
        base_deg = g.degrees()
        cover_deg = c.graph.degrees()
        for x in range(0, c.graph.vertex_count, max(1, deck // 2)):
            assert cover_deg[x] == base_deg[c.decode_vertex(x)[0]]


class TestProjection:
    def test_identity_cloud(self, k4):
        c = build_zm_cover(k4, 3)
        for v in range(4):
            assert project_vertex(c, c.encode_vertex(v, [0] * c.r)) == v

    def test_edge_projection(self, k4):
        c = build_zm_cover(k4, 3)
        rng = random.Random(1)
        for _ in range(50):
            E = rng.randrange(c.graph.edge_count)
            assert project_edge(c, E) == c.decode_edge(E)[0]

    def test_projection_of_lift(self, k4):
        c = build_zm_cover(k4, 3)
        rng = random.Random(2)
        for _ in range(30):
            w = random_base_walk(k4, rng, rng.randrange(1, 10))
            start = c.encode_vertex(w.start, [rng.randrange(3) for _ in range(c.r)])
            _, edges = lift_path(c, w, start)
            assert [project_edge(c, E) for E in edges] == [e for e, _ in w.steps]


class TestLifting:
    def test_empty_path(self, k4):
        c = build_zm_cover(k4, 3)
        assert lift_path(c, Walk(2, ()), c.encode_vertex(2, [1, 0, 2]))[0] \
            == c.encode_vertex(2, [1, 0, 2])

    def test_doubled_edge_monodromy(self, double):
        c = build_zm_cover(double, 3)
        two_cycle = Walk(0, ((0, 1), (1, -1)))
        start = c.encode_vertex(0, [0])
        end, _ = lift_path(c, two_cycle, start)
        assert end == c.encode_vertex(0, [2])
        w3 = Walk(0, two_cycle.steps * 3)
        assert lift_path(c, w3, start)[0] == start

    def test_wrong_start(self, k4):
        c = build_zm_cover(k4, 3)
        w = Walk(0, ((0, 1),))
        with pytest.raises(PathMismatch):
            lift_path(c, w, c.encode_vertex(1, [0, 0, 0]))

    def test_lift_is_a_path_in_cover(self, petersen):
        c = build_zm_cover(petersen, 3)
        rng = random.Random(3)
        for _ in range(20):
            w = random_base_walk(petersen, rng, rng.randrange(1, 12))
            start = c.encode_vertex(w.start,
                                    [rng.randrange(3) for _ in range(c.r)])
            end, edges = lift_path(c, w, start)
            cur = start
            for E, (e, d) in zip(edges, w.steps):
                t, h = c.graph.endpoints(E)
                assert {cur} <= {t, h}
                cur = h if cur == t and t != h else (t if cur == h else cur)
            assert cur == end


class TestCloudMap:
    def test_construction_labels(self, k4):
        c = build_zm_cover(k4, 3)
        lab = cloud_map(c, c.tree0)
        for x in range(c.graph.vertex_count):
            _, k = c.decode_vertex(x)
            assert list(lab[x]) == list(k)

    def test_basepoint_zero_for_any_tree(self, k4):
        import homcover
        c = build_zm_cover(k4, 3)
        for tree in homcover.enumerate_spanning_trees(k4, cap=20):
            assert not cloud_map(c, tree)[c.basepoint].any()

    def test_doubled_edge_other_tree(self, double):
        c = build_zm_cover(double, 3)
        other = _tree_from_edge_set(double, [1])
        lab = cloud_map(c, other)
        groups = {}
        for x in range(6):
            groups.setdefault(int(lab[x][0]), []).append(x)
        assert sorted(len(v) for v in groups.values()) == [2, 2, 2]

    def test_clouds_are_tree_copies(self, petersen):
        # each cloud (constant label) induces a copy of the spanning tree
        c = build_zm_cover(petersen, 3)
        lab = cloud_map(c, c.tree0)
        key = lab @ (3 ** np.arange(c.r, dtype=np.int64))
        tree_like = [E for E in range(c.graph.edge_count)
                     if project_edge(c, E) in c.tree0.tree_edges]
        for E in tree_like[:200]:
            t, h = c.graph.endpoints(E)
            assert key[t] == key[h]


class TestChains:
    def test_path_boundary(self, k4):
        rng = random.Random(4)
        for _ in range(20):
            w = random_base_walk(k4, rng, rng.randrange(0, 9))
            chain = chain_mod_m(k4, w, 3)
            b = boundary_mod_m(k4, chain, 3)
            expected = np.zeros(4, dtype=np.int64)
            expected[w.end(k4)] += 1
            expected[w.start] -= 1
            assert list(b.coeffs) == list(expected % 3)

    def test_cycle_boundary_zero(self, c5):
        w = Walk(0, tuple((e, 1) for e in range(5)))
        b = boundary_mod_m(c5, chain_mod_m(c5, w, 3), 3)
        assert not any(b.coeffs)

    def test_single_edge_scaled(self, k4):
        from homcover import EdgeChainModM
        chain = EdgeChainModM((2, 0, 0, 0, 0, 0), 3)  # (m-1) * edge 0
        b = boundary_mod_m(k4, chain, 3)
        t, h = k4.endpoints(0)
        expected = [0] * 4
        expected[h] = 2
        expected[t] = (-2) % 3
        assert list(b.coeffs) == expected


class TestCongruence:
    def test_reflexive(self, k4):
        rng = random.Random(5)
        w = random_base_walk(k4, rng, 6)
        assert is_m_congruent(k4, w, w, 3)

    def test_triangle_insertion(self, k4):
        w = Walk(0, ((0, 1),))  # 0 -> 1
        tri = ((3, 1), (5, 1), (4, -1))  # 1->2->3->1
        w_tri = Walk(0, ((0, 1),) + tri)
        assert not is_m_congruent(k4, w, w_tri, 3)
        w_tri3 = Walk(0, ((0, 1),) + tri * 3)
        assert is_m_congruent(k4, w, w_tri3, 3)

    def test_endpoint_mismatch(self, k4):
        with pytest.raises(EndpointMismatch):
            is_m_congruent(k4, Walk(0, ((0, 1),)), Walk(0, ()), 3)

    def test_m_repeated_edge(self, k4):
        assert not has_m_repeated_edge(k4, Walk(0, ((0, 1), (3, 1))), 3)
        w = Walk(0, ((0, 1), (0, -1)) * 3)
        # edge 0 is crossed forward 3 times
        fwd = Walk(0, ((0, 1), (0, -1), (0, 1), (0, -1), (0, 1)))
        assert has_m_repeated_edge(k4, fwd, 3) is False  # net count 1
        back_forth = Walk(0, ((0, 1), (3, 1), (3, -1), (0, -1)))
        assert has_m_repeated_edge(k4, back_forth, 3) is False
        g3 = cycle_graph(3)
        loop3 = Walk(0, tuple((e, 1) for e in range(3)) * 3)
        assert has_m_repeated_edge(g3, loop3, 3) is True

    def test_signed_counts(self, k4):
        w = Walk(0, ((0, 1), (0, -1), (1, 1)))
        counts = signed_edge_counts(k4, w)
        assert list(counts) == [0, 1, 0, 0, 0, 0]


class TestPhiProfile:
    def test_zero_for_equal(self, k4):
        c = build_zm_cover(k4, 3)
        assert not any(phi_profile(c, 17, 17).coeffs)

    def test_doubled_edge_unit(self, double):
        c = build_zm_cover(double, 3)
        x = c.encode_vertex(0, [0])
        y = c.encode_vertex(0, [1])
        prof = phi_profile(c, x, y)
        cot = c.cotree[0]
        assert prof.coeffs[cot] in (1, 2)

    def test_antisymmetry(self, k4):
        c = build_zm_cover(k4, 3)
        rng = random.Random(6)
        for _ in range(30):
            x, y = rng.randrange(108), rng.randrange(108)
            f = phi_profile(c, x, y).coeffs
            b = phi_profile(c, y, x).coeffs
            assert all((fi + bi) % 3 == 0 for fi, bi in zip(f, b))

    def test_matches_closed_form(self, petersen):
        # BFS-path route vs basepoint-difference route
        c = build_zm_cover(petersen, 3)
        profiles = c.base_profiles()
        rng = random.Random(7)
        n = c.graph.vertex_count
        for _ in range(40):
            x, y = rng.randrange(n), rng.randrange(n)
            direct = phi_profile(c, x, y).coeffs
            closed = (profiles[y].astype(int) - profiles[x].astype(int)) % 3
            assert list(direct) == list(closed)

    @given(two_edge_connected_multigraphs())
    @settings(max_examples=20, deadline=None)
    def test_path_independence(self, g):
        # two different walks between the same cover points give one profile
        c = build_zm_cover(g, 3)
        profiles = c.base_profiles()
        rng = random.Random(8)
        for _ in range(5):
            w = random_base_walk(g, rng, rng.randrange(1, 8))
            start = c.encode_vertex(w.start,
                                    [rng.randrange(3) for _ in range(c.r)])
            end, _ = lift_path(c, w, start)
            counts = signed_edge_counts(g, w) % 3
            closed = (profiles[end].astype(int) - profiles[start].astype(int)) % 3
            assert list(counts) == list(closed)


class TestDeckAction:
    def test_translation_is_free_automorphism(self, k4):
        c = build_zm_cover(k4, 3)
        deck = 3 ** c.r
        # add 1 to the first deck coordinate
        def shift(x):
            v, k = c.decode_vertex(x)
            k = list(k)
            k[0] = (k[0] + 1) % 3
            return c.encode_vertex(v, k)

        moved = [shift(x) for x in range(c.graph.vertex_count)]
        assert all(moved[x] != x for x in range(c.graph.vertex_count))
        edge_set = {tuple(sorted(c.graph.endpoints(E)))
                    for E in range(c.graph.edge_count)}
        for E in range(c.graph.edge_count):
            t, h = c.graph.endpoints(E)
            assert tuple(sorted((moved[t], moved[h]))) in edge_set


class TestResidueWidth:
    @pytest.mark.parametrize("m", [255, 256, 257])
    def test_c3_cover(self, m):
        c = build_zm_cover(cycle_graph(3), m)
        prof = c.base_profiles()
        assert prof.dtype == (np.uint8 if m <= 256 else np.uint16)
        assert int(prof.max()) == m - 1
        assert int(cloud_map(c).max()) == m - 1
        assert verify_compare(c, [0, 1, 2]).passed
        n = c.graph.vertex_count
        dq = np.stack([d_q_from(c, x) for x in range(n)])
        assert all(dq[x, y] == d_q(c, x, y) for x, y in [(0, n // 2), (5, 1)])
        numer, n_avoid = tree_average_numerators(c)
        assert np.array_equal(numer, n_avoid * dq)

    def test_widest_supported_m(self):
        m = MAX_M
        c = build_zm_cover(cycle_graph(1), m)  # the cycle C_m
        assert c.base_profiles().dtype == np.uint16
        row = d_q_from(c, 0)
        assert int(row.max()) == m // 2
        assert verify_compare(c, [0, m - 1]).passed

    @pytest.mark.parametrize("m", [1, MAX_M + 1])
    def test_unsupported_m_rejected(self, m):
        with pytest.raises(UnsupportedModulus):
            build_zm_cover(cycle_graph(1), m)
