"""Cloud labels and traversal profiles are selects of base_profiles.

`cloud_map(c, T)` is the cotree columns of `c.base_profiles()` and
`phi_profile(c, x, y)` is the row difference mod m.  The breadth-first
constructions below walk the cover itself and are kept as independent
oracles for both, and for the tree-averaged embedding built from them.

Every tree-averaged quantity reads one per-edge count of the trees that
leave each base edge out.  The per-tree loops it replaced (one cloud_map
and one loop-form d_T per tree, and psi distances through HalfIntVector
dicts) are kept below as oracles.

Every cut coordinate comes from one vectorised rule, `embed._cut_bits`.
The per-residue list and the per-edge loop it replaced are kept below as
oracles for `cycle_cut_arc`, `_arc_table`, `embed_point_l1` and the
`embed export` text, which is streamed in blocks of rows, each row joined
from one text piece per (base edge, residue).
"""

import dataclasses
import hashlib
import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcover import (MultiGraph, PsiEmbedding, build_zm_cover, cloud_map,
                      cycle_graph, d_q_from, d_q_tree_average, d_T_distance,
                      enumerate_spanning_trees, named_graph, phi_profile,
                      sample_uniform_tree, tree_average_numerators)
from homcover.cli import cover_document, main
from homcover.embed import _arc_table, cycle_cut_arc, embed_point_l1
from homcover.errors import InvalidParameter, NotSpanningTree

from conftest import two_edge_connected_multigraphs


def bfs_cloud_map(c, tree):
    """Cloud labels by a breadth-first search over the whole cover.

    Each step across a lift of cotree edge i adds its sign to coordinate i.
    """
    cotree_pos = {e: i for i, e in enumerate(tree.cotree)}
    m = c.m
    deck = c.deck_size
    n = c.graph.vertex_count
    labels = np.zeros((n, len(tree.cotree)),
                      dtype=np.uint8 if m <= 256 else np.uint16)
    seen = np.zeros(n, dtype=bool)
    seen[c.basepoint] = True
    indptr, ae, asg, ah = c.graph.arcs()
    frontier = [c.basepoint]
    while frontier:
        nxt = []
        for u in frontier:
            lu = labels[u]
            for i in range(indptr[u], indptr[u + 1]):
                w = int(ah[i])
                if seen[w]:
                    continue
                seen[w] = True
                pos = cotree_pos.get(int(ae[i]) // deck)
                labels[w] = lu
                if pos is not None:
                    labels[w, pos] = (int(lu[pos]) + int(asg[i])) % m
                nxt.append(w)
        frontier = nxt
    return labels


def bfs_phi_profile(c, x, y):
    """Signed mod-m base-edge counts along a BFS-tree path from x to y."""
    deck = c.deck_size
    counts = np.zeros(c.base.edge_count, dtype=np.int64)
    indptr, ae, asg, ah = c.graph.arcs()
    parent_arc = {x: None}
    frontier = [x]
    while y not in parent_arc:
        nxt = []
        for u in frontier:
            for i in range(indptr[u], indptr[u + 1]):
                w = int(ah[i])
                if w not in parent_arc:
                    parent_arc[w] = (u, int(ae[i]), int(asg[i]))
                    nxt.append(w)
        frontier = nxt
    cur = y
    while cur != x:
        u, e, sgn = parent_arc[cur]
        counts[e // deck] += sgn
        cur = u
    return tuple(int(v) for v in counts % c.m)


def oracle_cycle_cut_arc(k, m):
    """The floor(m/2) arcs containing residue k, listed one by one."""
    return sorted((k - j) % m for j in range(m // 2))


def oracle_embed_point_l1(c, x):
    """(entries, dim, block_layout) of embed_point_l1, one base edge at a time."""
    prof = c.base_profiles()
    m = c.m
    entries = {}
    for e in range(c.base.edge_count):
        for t in oracle_cycle_cut_arc(int(prof[x, e]), m):
            entries[e * m + t] = 1
    layout = tuple((f"edge{e}", e * m, m) for e in range(c.base.edge_count))
    return tuple(sorted(entries.items())), c.base.edge_count * m, layout


def per_tree_psi(c, trees):
    """The tree-averaged embedding assembled one tree block at a time.

    Returns (vector(x), matrix) built from per-tree BFS labels, the
    construction PsiEmbedding replaces with one gather.
    """
    m = c.m
    labels = [bfs_cloud_map(c, t) for t in trees]
    r = len(trees[0].cotree)
    dim = len(trees) * r * m

    def vector(x):
        entries = {}
        layout = []
        for ti, lab in enumerate(labels):
            for i in range(r):
                start = (ti * r + i) * m
                layout.append((f"tree{ti}_factor{i}", start, m))
                for t in oracle_cycle_cut_arc(int(lab[x, i]), m):
                    entries[start + t] = 1
        return tuple(sorted(entries.items())), dim, tuple(layout)

    arcs = np.zeros((m, m), dtype=np.uint8)
    for k in range(m):
        arcs[k, oracle_cycle_cut_arc(k, m)] = 1
    lab = np.concatenate(labels, axis=1)
    matrix = arcs[lab.reshape(-1)].reshape(lab.shape[0], dim)
    return vector, matrix


def assert_select_matches(c, tree):
    got = cloud_map(c, tree)
    want = bfs_cloud_map(c, tree)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def with_loop_and_parallel(g):
    """g plus a loop at vertex 0 and a parallel copy of edge 0."""
    edges = [list(g.endpoints(e)) for e in range(g.edge_count)]
    return MultiGraph(g.vertex_count, edges + [[0, 0], edges[0]])


class TestCloudMapSelect:
    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("name", ["doubled_edge", "k4", "c5"])
    def test_every_tree(self, name, m):
        g = named_graph(name)
        c = build_zm_cover(g, m)
        for tree in enumerate_spanning_trees(g):
            assert_select_matches(c, tree)

    def test_every_petersen_tree_m2(self):
        g = named_graph("petersen")
        c = build_zm_cover(g, 2)
        trees = list(enumerate_spanning_trees(g))
        assert len(trees) == 2000
        for tree in trees:
            assert_select_matches(c, tree)

    def test_wide_residues(self):
        g = named_graph("c5")
        c = build_zm_cover(g, 257)
        for tree in enumerate_spanning_trees(g):
            assert_select_matches(c, tree)
        assert cloud_map(c).dtype == np.uint16

    @given(two_edge_connected_multigraphs(max_vertices=4, max_extra_edges=3),
           st.sampled_from([2, 3]))
    @settings(max_examples=25, deadline=None)
    def test_multigraphs_with_loops_and_parallel_edges(self, g, m):
        g = with_loop_and_parallel(g)
        c = build_zm_cover(g, m)
        for tree in itertools.islice(enumerate_spanning_trees(g), 10):
            assert_select_matches(c, tree)

    def test_result_is_a_copy(self, k4):
        c = build_zm_cover(k4, 3)
        before = c.base_profiles().copy()
        for tree in (None, *itertools.islice(enumerate_spanning_trees(k4), 3)):
            lab = cloud_map(c, tree)
            lab += 1
            assert np.array_equal(c.base_profiles(), before)

    def test_inconsistent_cotree_rejected(self, k4):
        c = build_zm_cover(k4, 3)
        tree = next(enumerate_spanning_trees(k4))
        bad = dataclasses.replace(tree, cotree=tree.cotree[::-1])
        with pytest.raises(NotSpanningTree):
            cloud_map(c, bad)


class TestPhiProfileSelect:
    @pytest.mark.parametrize("name,m", [("doubled_edge", 5), ("k4", 2),
                                        ("k4", 3), ("c5", 5),
                                        ("petersen", 3)])
    def test_matches_bfs(self, name, m):
        c = build_zm_cover(named_graph(name), m)
        n = c.graph.vertex_count
        rng = random.Random(11)
        for _ in range(40):
            x, y = rng.randrange(n), rng.randrange(n)
            got = phi_profile(c, x, y)
            assert got.m == m
            assert got.coeffs == bfs_phi_profile(c, x, y)

    def test_wide_residues(self):
        c = build_zm_cover(cycle_graph(3), 257)
        n = c.graph.vertex_count
        for x, y in [(0, n - 1), (n - 1, 0), (5, 700), (300, 300)]:
            assert phi_profile(c, x, y).coeffs == bfs_phi_profile(c, x, y)

    @given(two_edge_connected_multigraphs(max_vertices=4, max_extra_edges=3),
           st.sampled_from([2, 3]), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_multigraphs(self, g, m, rng):
        c = build_zm_cover(with_loop_and_parallel(g), m)
        n = c.graph.vertex_count
        for _ in range(5):
            x, y = rng.randrange(n), rng.randrange(n)
            assert phi_profile(c, x, y).coeffs == bfs_phi_profile(c, x, y)

    @pytest.mark.parametrize("x,y", [(-1, 0), (0, 108), (108, 0)])
    def test_range_check(self, k4, x, y):
        c = build_zm_cover(k4, 3)
        with pytest.raises(IndexError):
            phi_profile(c, x, y)


class TestPsiGather:
    """psi against per-tree labels of its own SpanningTree enumeration;
    PsiEmbedding itself keeps only the cotrees."""

    @pytest.mark.parametrize("name,m", [("doubled_edge", 3), ("k4", 3),
                                        ("c5", 2), ("k4", 5)])
    def test_matches_per_tree_construction(self, name, m):
        c = build_zm_cover(named_graph(name), m)
        psi = PsiEmbedding(c)
        trees = list(enumerate_spanning_trees(c.base))
        assert psi.trees == tuple(t.cotree for t in trees)
        vector, matrix = per_tree_psi(c, trees)
        assert psi.matrix().dtype == np.uint8
        assert np.array_equal(psi.matrix(), matrix)
        for x in range(c.graph.vertex_count):
            v = psi.vector(x)
            assert (v.entries, v.dim, v.block_layout) == vector(x)

    def test_petersen_m2_sample(self):
        c = build_zm_cover(named_graph("petersen"), 2)
        psi = PsiEmbedding(c)
        trees = list(enumerate_spanning_trees(c.base))
        assert psi.trees == tuple(t.cotree for t in trees)
        vector, matrix = per_tree_psi(c, trees)
        assert np.array_equal(psi.matrix(), matrix)
        for x in random.Random(3).sample(range(c.graph.vertex_count), 5):
            v = psi.vector(x)
            assert (v.entries, v.dim, v.block_layout) == vector(x)


class TestCutRule:
    @pytest.mark.parametrize("m", range(2, 65))
    def test_arc_and_table_match_oracle(self, m):
        table = np.zeros((m, m), dtype=np.uint8)
        for k in range(m):
            want = oracle_cycle_cut_arc(k, m)
            got = cycle_cut_arc(k, m)
            assert got == want and all(type(t) is int for t in got)
            table[k, want] = 1
        got = _arc_table(m)
        assert got.dtype == np.uint8
        assert np.array_equal(got, table)

    @pytest.mark.parametrize("k,m", [(0, 1), (3, 3), (-1, 3), (5, 4)])
    def test_range_errors_are_typed(self, k, m):
        with pytest.raises(InvalidParameter):
            cycle_cut_arc(k, m)


def assert_embeds_like_oracle(c, vertices):
    for x in vertices:
        v = embed_point_l1(c, x)
        assert (v.entries, v.dim, v.block_layout) == oracle_embed_point_l1(c, x)


class TestEmbedPointL1:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("name", ["doubled_edge", "k4", "c5"])
    def test_every_vertex(self, name, m):
        c = build_zm_cover(named_graph(name), m)
        assert_embeds_like_oracle(c, range(c.graph.vertex_count))

    def test_wide_residues(self):
        c = build_zm_cover(named_graph("c5"), 257)
        assert_embeds_like_oracle(c, range(c.graph.vertex_count))

    def test_largest_modulus_needs_no_square_table(self):
        m = 1 << 16
        c = build_zm_cover(cycle_graph(1), m)
        c.base_profiles()
        tracemalloc.start()
        try:
            assert_embeds_like_oracle(c, [0, 1, m // 2, m - 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an (m, m) table would be 4 GiB; one (|E|, m) row is a few MB
        assert peak < 64 << 20


def oracle_export_text(c, fmt):
    """The `embed export` text of a cover, built from the oracle vectors."""
    n = c.graph.vertex_count
    _, dim, layout = oracle_embed_point_l1(c, 0)
    if fmt == "json":
        vectors = {str(x): [list(p) for p in oracle_embed_point_l1(c, x)[0]]
                   for x in range(n)}
        body = {"m": c.m, "blocks": [list(b) for b in layout], "dim": dim,
                "vectors": vectors}
        return json.dumps(body, sort_keys=True) + "\n"
    blocks = ";".join(f"{name}:{start}:{width}" for name, start, width in layout)
    lines = [f"# m={c.m} dim={dim} blocks={blocks}"]
    for x in range(n):
        entries = oracle_embed_point_l1(c, x)[0]
        lines.append(",".join([str(x)] + [f"{k}:{d}" for k, d in entries]))
    return "\n".join(lines) + "\n"


def export_text(c, fmt, tmp_path, capsys):
    """stdout of `embed export` for the cover c, written to a document first."""
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(cover_document(c)))
    assert main(["embed", "export", "--cover", str(path), "--format", fmt]) == 0
    return capsys.readouterr().out


class TestEmbedExport:
    """`embed export` streams blocks of rows as text.

    A row is one piece per base edge, the cells of that edge's residue;
    each block builds the pieces its rows use.  The oracle builds the
    whole text at once from the per-edge vectors; the streamed text must
    equal it byte for byte.
    """

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("name", ["doubled_edge", "c5", "k4"])
    def test_matches_oracle(self, name, m, fmt, tmp_path, capsys):
        c = build_zm_cover(named_graph(name), m)
        assert export_text(c, fmt, tmp_path, capsys) == oracle_export_text(c, fmt)

    @pytest.mark.parametrize("fmt,want", [
        ("csv", "# m=3 dim=0 blocks=\n0\n"),
        ("json", '{"blocks": [], "dim": 0, "m": 3, "vectors": {"0": []}}\n'),
    ])
    def test_no_edges(self, fmt, want, tmp_path, capsys):
        c = build_zm_cover(named_graph("complete:1"), 3)
        got = export_text(c, fmt, tmp_path, capsys)
        assert got == want == oracle_export_text(c, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_small_blocks(self, fmt, tmp_path, capsys, monkeypatch):
        # 108 vertices in blocks of 7: JSON's string-sorted ids ("0", "1",
        # "10", "100", ...) cross block boundaries in a different order
        monkeypatch.setattr("homcover.cli._EXPORT_BLOCK", 7)
        c = build_zm_cover(named_graph("k4"), 3)
        assert export_text(c, fmt, tmp_path, capsys) == oracle_export_text(c, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("g,m", [
        # one edge block whose coordinates cross widths 9 -> 10 and 99 -> 100
        (cycle_graph(1), 257),
        (named_graph("petersen"), 3),
        (named_graph("k4"), 7),
        (with_loop_and_parallel(named_graph("k4")), 3),
    ], ids=["cycle1-257", "petersen-3", "k4-7", "k4_loop_parallel-3"])
    def test_matches_oracle_in_any_block_size(self, g, m, fmt, tmp_path,
                                              capsys, monkeypatch):
        c = build_zm_cover(g, m)
        want = oracle_export_text(c, fmt)
        assert export_text(c, fmt, tmp_path, capsys) == want
        monkeypatch.setattr("homcover.cli._EXPORT_BLOCK", 7)
        assert export_text(c, fmt, tmp_path, capsys) == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_equals_stdout(self, fmt, tmp_path, capsys):
        c = build_zm_cover(named_graph("c5"), 4)
        stdout = export_text(c, fmt, tmp_path, capsys)
        out = tmp_path / f"embedding.{fmt}"
        assert main(["embed", "export", "--cover", str(tmp_path / "cover.json"),
                     "--format", fmt, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode()

    def test_rejected_cover_leaves_no_file(self, tmp_path, capsys):
        doc = cover_document(build_zm_cover(named_graph("k4"), 3))
        doc["edges"] = doc["edges"][:-1]
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "embedding.json"
        assert main(["embed", "export", "--cover", str(path),
                     "--out", str(out)]) == 2
        assert "does not match" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_does_not_grow_with_the_text(self, tmp_path):
        # Petersen m = 4: 40,960 vertices and an 11.3 MB JSON text.  Loading
        # the cover document holds about 9 MB of parsed JSON; holding the
        # whole text, or every row's coordinates at once, would exceed the
        # bound.
        c = build_zm_cover(named_graph("petersen"), 4)
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(cover_document(c)))
        del c
        out = tmp_path / "embedding.json"
        tracemalloc.start()
        try:
            assert main(["embed", "export", "--cover", str(path),
                         "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        with out.open("rb") as f:
            digest = hashlib.file_digest(f, "sha256").hexdigest()
        assert (out.stat().st_size, digest) == (
            11_294_167, "14fe5f415c0980464c73c7a9799167396912032a"
                        "fe573907d747303b01b9ad65")

    @pytest.mark.parametrize("fmt,size", [("csv", 12_905_933),
                                          ("json", 20_919_970)])
    def test_memory_does_not_grow_with_m(self, fmt, size, tmp_path,
                                         monkeypatch):
        # cycle:1 at m = 2,001: 2,001 rows of 1,000 cells, in blocks of 7
        # rows.  Gathering each block's cells peaked at 0.74 MiB (CSV) and
        # 0.62 MiB (JSON); a table of the pieces of every (edge, residue),
        # 2,001 pieces of 1,000 cells, peaks at 61 MiB.
        monkeypatch.setattr("homcover.cli._EXPORT_BLOCK", 7)
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(cover_document(
            build_zm_cover(cycle_graph(1), 2001))))
        out = tmp_path / f"embedding.{fmt}"
        tracemalloc.start()
        try:
            assert main(["embed", "export", "--cover", str(path), "--format",
                         fmt, "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.stat().st_size == size
        assert peak < 2 << 20


def oracle_d_T_distance(a, b, m):
    """Word metric on Z_m^r, one factor at a time."""
    total = 0
    for x, y in zip(a, b):
        z = (int(x) - int(y)) % m
        total += min(z, m - z)
    return total


def oracle_tree_average(c, x, y, sample=None, seed=0):
    """(value, trees_used) of d_q_tree_average, one cloud_map per tree."""
    counts = c.tree_counts()
    if sample is None:
        trees = enumerate_spanning_trees(c.base)
    else:
        trees = (sample_uniform_tree(c.base, seed + i) for i in range(sample))
    total = used = 0
    for tree in trees:
        labels = cloud_map(c, tree)
        total += oracle_d_T_distance(labels[x], labels[y], c.m)
        used += 1
    if sample is None:
        return Fraction(total, counts.common), used
    return Fraction(counts.total * total, counts.common * sample), used


def oracle_tree_average_numerators(c):
    """All-pairs sum of d_T, one (|V~|, |V~|, r) stack per tree."""
    n, m = c.graph.vertex_count, c.m
    total = np.zeros((n, n), dtype=np.int64)
    for tree in enumerate_spanning_trees(c.base):
        lab = cloud_map(c, tree).astype(np.int64)
        z = (lab[:, None, :] - lab[None, :, :]) % m
        total += np.minimum(z, m - z).sum(axis=2)
    return total, c.tree_counts().common


def oracle_psi_distance(psi, x, y):
    """l1 distance of the HalfIntVector images, over N."""
    return psi.vector(x).l1_distance(psi.vector(y)) / psi.n_avoid


def some_pairs(n, count, seed):
    rng = random.Random(seed)
    return [(0, 0), (0, n - 1)] + [(rng.randrange(n), rng.randrange(n))
                                   for _ in range(count)]


SMALL_COVERS = [(name, m) for name in ("doubled_edge", "k4", "c5")
                for m in (2, 3, 5)]


class TestTreeAverageEdgeSum:
    """Every tree average is the edge sum of the per-edge tree weights."""

    @pytest.mark.parametrize("name,m", SMALL_COVERS + [("c5", 257)])
    def test_exact_pairs(self, name, m):
        c = build_zm_cover(named_graph(name), m)
        for x, y in some_pairs(c.graph.vertex_count, 15, seed=m):
            got = d_q_tree_average(c, x, y)
            assert not got.sampled
            assert (got.value, got.trees_used) == oracle_tree_average(c, x, y)

    @pytest.mark.parametrize("name,m", SMALL_COVERS + [("c5", 257)])
    def test_sampled_pairs(self, name, m):
        c = build_zm_cover(named_graph(name), m)
        for seed in (0, 5, 11):
            for x, y in some_pairs(c.graph.vertex_count, 3, seed=seed):
                got = d_q_tree_average(c, x, y, sample=7, seed=seed)
                assert got.sampled
                assert (got.value, got.trees_used) == \
                    oracle_tree_average(c, x, y, sample=7, seed=seed)

    @pytest.mark.parametrize("name,m", SMALL_COVERS + [("c5", 257)])
    def test_numerators(self, name, m):
        c = build_zm_cover(named_graph(name), m)
        numer, n_avoid = tree_average_numerators(c)
        want, want_n = oracle_tree_average_numerators(c)
        assert numer.dtype == np.int64 and n_avoid == want_n
        assert np.array_equal(numer, want)

    def test_petersen_m2_all_pairs_in_bounded_memory(self):
        # tau = 2,000 and N = 800: both exceed the uint8 residue dtype
        c = build_zm_cover(named_graph("petersen"), 2)
        n = c.graph.vertex_count
        c.base_profiles()
        c.tree_counts()
        tracemalloc.start()
        try:
            numer, n_avoid = tree_average_numerators(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (640, 640) int64 array is 3.3 MB; a (640, 640, 15) one is 49 MB
        assert peak < 12 << 20
        assert n_avoid == 800
        dq = np.stack([d_q_from(c, x) for x in range(n)])
        assert np.array_equal(numer, n_avoid * dq)

    def test_c5_m400_numerators_in_row_blocks(self):
        # the (2000, 2000) int64 result is 30.5 MiB; a full-size int64
        # product per base edge would add as much again
        c = build_zm_cover(named_graph("c5"), 400)
        c.base_profiles()
        c.tree_counts()
        tracemalloc.start()
        try:
            numer, n_avoid = tree_average_numerators(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40 << 20
        want, want_n = oracle_tree_average_numerators(c)
        assert n_avoid == want_n
        assert np.array_equal(numer, want)

    @pytest.mark.parametrize("m", [2, 3, 5, 257])
    def test_d_T_distance(self, m):
        rng = random.Random(m)
        for _ in range(50):
            a, b = ([rng.randrange(-3 * m, 3 * m) for _ in range(6)]
                    for _ in range(2))
            assert d_T_distance(a, b, m) == oracle_d_T_distance(a, b, m)
        c = build_zm_cover(named_graph("c5"), m)
        lab = cloud_map(c)
        for x, y in some_pairs(c.graph.vertex_count, 10, seed=1):
            assert d_T_distance(lab[x], lab[y], m) == \
                oracle_d_T_distance(lab[x], lab[y], m)

    @pytest.mark.parametrize("seed,x,y,value", [
        (0, 0, 639, Fraction(73, 10)), (1, 3, 200, Fraction(167, 20)),
        (7, 17, 455, Fraction(26, 5)), (42, 64, 65, Fraction(91, 20)),
        (501, 320, 1, Fraction(117, 20))])
    def test_petersen_m2_sampled_pins(self, seed, x, y, value):
        # taken from the per-tree SpanningTree construction
        c = build_zm_cover(named_graph("petersen"), 2)
        got = d_q_tree_average(c, x, y, sample=50, seed=seed)
        assert (got.value, got.trees_used, got.sampled) == (value, 50, True)

    @pytest.mark.parametrize("x,y,value", [(0, 107, 4), (5, 50, 4),
                                           (13, 88, 5), (40, 41, 3)])
    def test_k4_m3_enumerated_pins(self, x, y, value):
        c = build_zm_cover(named_graph("k4"), 3)
        got = d_q_tree_average(c, x, y)
        assert (got.value, got.trees_used, got.sampled) == \
            (Fraction(value), 16, False)

    @pytest.mark.parametrize("name,m", SMALL_COVERS)
    def test_psi_distance(self, name, m):
        c = build_zm_cover(named_graph(name), m)
        psi = PsiEmbedding(c)
        for x, y in some_pairs(c.graph.vertex_count, 15, seed=m):
            got = psi.distance(x, y)
            assert type(got) is Fraction
            assert got == oracle_psi_distance(psi, x, y)
