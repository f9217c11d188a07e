"""The text writers of the CLI: graph and cover documents, `tower build`
and `embed export`, written as fixed-width byte records in blocks.

The oracles are the dict builders and the standard library:
`json.dumps(graph_document(g), sort_keys=True)`,
`json.dumps(cover_document(c), sort_keys=True)`, `embed_point_l1` and
`sorted(..., key=str)`.
"""

import json
import tracemalloc

import numpy as np
import pytest

from homcover import (MultiGraph, PsiEmbedding, build_zm_cover, cycle_graph,
                      embed_point_l1, embed_point_psi, load_graph,
                      named_graph, path_graph)
from homcover.cli import (_cover_text, _document_text, _read_cover,
                          _read_json, _string_order, cover_document,
                          load_cover, main)
from homcover.embed import _cut_bits
from homcover.errors import ParseError, SizeCapExceeded
from homcover.graph import _document_fields, graph_document

DIGIT_BOUNDARIES = [1, 9, 10, 11, 99, 100, 101, 1000, 1001]


def graph_text(g):
    return "".join(_document_text(_document_fields(g), g))


def oracle_graph_text(g):
    return json.dumps(graph_document(g), sort_keys=True) + "\n"


class TestGraphDocumentText:
    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    @pytest.mark.parametrize("n", DIGIT_BOUNDARIES)
    def test_digit_boundaries(self, n, block, monkeypatch):
        # a cycle on n vertices has ids of every width up to n - 1's,
        # and its last edge closes from n - 1 back to 0
        monkeypatch.setattr("homcover.cli._EDGE_BLOCK", block)
        g = cycle_graph(n)
        assert graph_text(g) == oracle_graph_text(g)

    @pytest.mark.parametrize("g", [
        MultiGraph(0),
        MultiGraph(5),
        MultiGraph(3, [[0, 0], [0, 1], [0, 1], [2, 2], [1, 0]]),
        MultiGraph(12, [[11, 11], [10, 0], [0, 10], [9, 11]]),
        path_graph(11),
    ], ids=["empty", "edgeless", "loops_parallel", "two_digit_loops", "path11"])
    def test_shapes(self, g, monkeypatch):
        assert graph_text(g) == oracle_graph_text(g)
        monkeypatch.setattr("homcover.cli._EDGE_BLOCK", 2)
        assert graph_text(g) == oracle_graph_text(g)

    def test_labelled_graph(self):
        # labels sort after "edges"; text in them that looks like the edge
        # list, or like an empty list, is left where it is
        labels = ['"edges": []', "[]", {"b": [1, 2], "a": None}, 3.5,
                  "é\x00"]
        g = MultiGraph(4, [[0, 1], [1, 2], [2, 3], [3, 0], [0, 0]], labels)
        assert graph_text(g) == oracle_graph_text(g)

    @pytest.mark.parametrize("name,m", [
        ("doubled_edge", 2), ("c5", 2), ("k4", 3), ("petersen", 2),
        ("complete:1", 3), ("k4", 7)])
    def test_cover_documents(self, name, m, monkeypatch):
        c = build_zm_cover(named_graph(name), m)
        want = json.dumps(cover_document(c), sort_keys=True) + "\n"
        assert "".join(_cover_text(c)) == want
        monkeypatch.setattr("homcover.cli._EDGE_BLOCK", 5)
        assert "".join(_cover_text(c)) == want

    def test_cover_build_writes_the_document(self, tmp_path):
        # 10 vertices at m = 2: 640 cover vertices, ids of 1 to 3 digits
        g = named_graph("petersen")
        path = tmp_path / "petersen.json"
        path.write_text(json.dumps(graph_document(g)))
        out = tmp_path / "cover.json"
        assert main(["cover", "build", "--graph", str(path), "--m", "2",
                     "--out", str(out)]) == 0
        c = build_zm_cover(g, 2)
        assert out.read_text() == json.dumps(cover_document(c),
                                             sort_keys=True) + "\n"


class TestStringOrder:
    @pytest.mark.parametrize("n", [0, *DIGIT_BOUNDARIES, 12_345])
    def test_matches_sorted_by_str(self, n):
        assert _string_order(n).tolist() == sorted(range(n), key=str)


def parse_csv(text):
    lines = text.splitlines()
    vectors = []
    for line in lines[1:]:
        x, *cells = line.split(",")
        vectors.append((int(x), [tuple(map(int, c.split(":"))) for c in cells]))
    return lines[0], vectors


class TestExportAgainstEmbedding:
    """Both formats list every vertex's `embed_point_l1` entries; JSON
    in the order of the ids as strings, which differs from numeric order
    from 11 vertices on."""

    COVERS = [("doubled_edge", 2), ("c5", 2), ("doubled_edge", 7),
              ("c5", 3), ("c5", 4), ("k4", 2), ("k4", 4), ("c5", 7)]

    @pytest.mark.parametrize("block", [7, 4096])
    @pytest.mark.parametrize("name,m", COVERS)
    def test_csv(self, name, m, block, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("homcover.cli._EXPORT_BLOCK", block)
        c = build_zm_cover(named_graph(name), m)
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(cover_document(c)))
        assert main(["embed", "export", "--cover", str(path), "--format",
                     "csv"]) == 0
        header, vectors = parse_csv(capsys.readouterr().out)
        assert header.startswith(f"# m={m} dim={c.base.edge_count * m} ")
        n = c.graph.vertex_count
        assert [x for x, _ in vectors] == list(range(n))
        for x, cells in vectors:
            assert tuple(cells) == embed_point_l1(c, x).entries

    @pytest.mark.parametrize("block", [7, 4096])
    @pytest.mark.parametrize("name,m", COVERS)
    def test_json(self, name, m, block, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("homcover.cli._EXPORT_BLOCK", block)
        c = build_zm_cover(named_graph(name), m)
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(cover_document(c)))
        assert main(["embed", "export", "--cover", str(path)]) == 0
        text = capsys.readouterr().out
        body = json.loads(text)
        n = c.graph.vertex_count
        assert list(body["vectors"]) == sorted(map(str, range(n)))
        for x, cells in body["vectors"].items():
            v = embed_point_l1(c, int(x))
            assert tuple(map(tuple, cells)) == v.entries
        assert body["dim"] == v.dim
        assert body["blocks"] == [list(b) for b in v.block_layout]
        assert text == json.dumps(body, sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_blocks_shrink_with_m(fmt, tmp_path):
    # cycle:1 at m = 2,001: 2,001 rows of 1,000 cells, 11 to 22 MB of text.
    # With the default block every row fit in one block, which peaked at
    # 68 (CSV) and 91 MiB (JSON); blocks of about 1 MiB of records peak
    # at 9.1 and 6.6 MiB.
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(cover_document(build_zm_cover(cycle_graph(1),
                                                             2001))))
    out = tmp_path / f"embedding.{fmt}"
    tracemalloc.start()
    try:
        assert main(["embed", "export", "--cover", str(path), "--format",
                     fmt, "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20


class TestTowerBuild:
    def test_memory_bound(self, tmp_path, capsys):
        # rank 2, m = 3, two levels: the 18.7 MB level-2 document is written
        # from the edge arrays in blocks; rendering it whole from a list of
        # lists peaked at 194 MiB, the blocks at 15.8 MiB
        tracemalloc.start()
        try:
            assert main(["tower", "build", "--rank", "2", "--m", "3",
                         "--levels", "2", "--out-dir", str(tmp_path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 20 << 20
        assert (tmp_path / "level2.json").stat().st_size == 18_687_468

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch,
                                                 capsys):
        # level 1 is written whole before level 2's edges fail midway
        import homcover.cli as cli
        text, calls = cli._text, []

        def failing(rec):
            calls.append(rec.shape)
            if len(calls) == 3:
                raise OSError("disk full")
            return text(rec)
        monkeypatch.setattr("homcover.cli._EDGE_BLOCK", 1000)
        monkeypatch.setattr("homcover.cli._text", failing)
        assert main(["tower", "build", "--rank", "2", "--m", "3",
                     "--levels", "2", "--out-dir", str(tmp_path)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["level1.json"]


class TestLoadGraphChecks:
    """load_graph accepts exactly the pairs its per-pair rule accepts:
    lists or tuples of two ints, bools excepted, subclasses included."""

    class Int(int):
        pass

    class Pair(list):
        pass

    @pytest.mark.parametrize("edges", [
        [], [[0, 1]], [(0, 1), [1, 2]], [[Int(0), 1]], [Pair([0, 2])],
    ], ids=["none", "lists", "tuples", "int_subclass", "list_subclass"])
    def test_accepted(self, edges):
        g = load_graph({"vertices": 3, "edges": edges})
        assert np.stack((g.tails, g.heads), axis=1).tolist() == [
            [int(t), int(h)] for t, h in edges]

    @pytest.mark.parametrize("bad", [
        [0, True], [False, 1], [0], [0, 1, 2], [0, 1.0], [0, "1"], [0, None],
        "01", 7, {0: 1}, [[0], 1], [0, np.int64(1)],
    ])
    def test_rejected_names_the_entry(self, bad):
        edges = [[0, 1], [1, 2], bad, [2, 0]]
        with pytest.raises(ParseError) as info:
            load_graph({"vertices": 3, "edges": edges})
        assert str(info.value) == f"bad edge entry: {bad!r}"

    @pytest.mark.parametrize("big", [2 ** 63, 2 ** 64, -2 ** 64])
    def test_id_beyond_int64_is_a_parse_error(self, big, tmp_path, capsys):
        # the ids are filled into an int64 array; one that does not fit
        # is a malformed document (exit 2), not an internal error
        edges = [[0, 1], [1, 2], [big, 2], [2, 0]]
        with pytest.raises(ParseError):
            load_graph({"vertices": 3, "edges": edges})
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": 3, "edges": edges}))
        assert main(["trees", "count", "--graph", str(path)]) == 2
        assert "internal error" not in capsys.readouterr().err

    def test_plain_pairs_make_int64_columns(self):
        g = load_graph({"vertices": 4, "edges": [[0, 1], [3, 2], [2, 2]]})
        for a, want in ((g.tails, [0, 3, 2]), (g.heads, [1, 2, 2])):
            assert a.dtype == np.int64 and a.flags.c_contiguous
            assert a.tolist() == want


def _outcome(read):
    """What a reader gives: the cover's document text, or its error."""
    try:
        c = read()
    except Exception as exc:
        return type(exc), str(exc)
    return c.m, c.cotree, "".join(_cover_text(c))


def _redump(mutate):
    """A text mutation that edits the parsed document and writes it back
    in the canonical layout."""
    def text_of(text):
        doc = json.loads(text)
        mutate(doc)
        return json.dumps(doc, sort_keys=True) + "\n"
    return text_of


def _set(key, value):
    return _redump(lambda doc: doc.__setitem__(key, value(doc[key])))


def _last_digit(doc):
    # the last edge's head, another id of the same width
    doc["edges"][-1][1] ^= 1


def _swap_edges(doc):
    e = doc["edges"]
    e[0], e[-1] = e[-1], e[0]


#: Texts the byte check must reject, and one (the canonical text) it
#: must accept; each goes on to load_cover as a parsed document would.
MUTATIONS = {
    "canonical": lambda text: text,
    "edge_digit": _redump(_last_digit),
    "edges_swapped": _redump(_swap_edges),
    "vertices_up": _set("vertices", lambda n: n + 1),
    "vertices_down": _set("vertices", lambda n: n - 1),
    "m_up": _set("m", lambda m: m + 1),
    "m_down": _set("m", lambda m: m - 1),
    "m_bool": _set("m", lambda m: True),
    "cotree_id": _set("cotree", lambda ids: [ids[0] + 1, *ids[1:]]),
    "edge_float": _redump(lambda doc: doc["edges"][0].__setitem__(
        0, float(doc["edges"][0][0]))),
    "base_extra_key": _redump(lambda doc: doc["base"].update(note=1)),
    "no_newline": lambda text: text[:-1],
    "trailing_space": lambda text: text + " \n",
    "trailing_bytes": lambda text: text + "x",
    "indented": lambda text: json.dumps(json.loads(text), indent=2,
                                        sort_keys=True),
    "unsorted": lambda text: json.dumps(json.loads(text)) + "\n",
    "truncated": lambda text: text[:len(text) // 2],
    "head_only": lambda text: '{"base": ',
}

READ_COVERS = [("k4", 2), ("k4", 3), ("k4", 4), ("petersen", 2),
               ("petersen", 3), ("petersen", 4), ("cycle:1", 2),
               ("cycle:1", 3), ("cycle:1", 4)]


class TestReadCover:
    """`_read_cover` reads a cover document as `load_cover(_read_json(p))`
    does: the same cover, or the same error type and message."""

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("name,m", READ_COVERS)
    def test_matches_the_parsed_reader(self, name, m, mutation, tmp_path):
        c = build_zm_cover(named_graph(name), m)
        text = MUTATIONS[mutation]("".join(_cover_text(c)))
        path = tmp_path / "cover.json"
        path.write_text(text, encoding="utf-8")
        p = str(path)
        got = _outcome(lambda: _read_cover(p))
        assert got == _outcome(lambda: load_cover(_read_json(p)))
        if mutation == "canonical":
            assert got[2] == text

    @pytest.mark.parametrize("cap", [1, 35, 36, 107, 108])
    def test_size_cap(self, cap, tmp_path):
        # k4 at m = 3: a 4-vertex base, a 108-vertex cover
        path = tmp_path / "cover.json"
        path.write_text("".join(_cover_text(build_zm_cover(named_graph("k4"), 3))))
        p = str(path)
        got = _outcome(lambda: _read_cover(p, cap))
        assert got == _outcome(lambda: load_cover(_read_json(p), cap))
        assert (got[0] is SizeCapExceeded) == (cap < 108)

    @pytest.mark.parametrize("raw", [b"\xff\xfe", b"", b"{}", b"[1, 2]",
                                     b"\xef\xbb\xbf{}"])
    def test_bytes_that_are_no_cover(self, raw, tmp_path):
        path = tmp_path / "cover.json"
        path.write_bytes(raw)
        p = str(path)
        got = _outcome(lambda: _read_cover(p))
        assert got == _outcome(lambda: load_cover(_read_json(p)))
        assert got[0] is ParseError

    def test_canonical_text_is_not_parsed(self, tmp_path, monkeypatch):
        c = build_zm_cover(named_graph("petersen"), 3)
        path = tmp_path / "cover.json"
        path.write_text("".join(_cover_text(c)))

        def unused(*args, **kwargs):
            raise AssertionError("json.loads called on a canonical document")
        monkeypatch.setattr(json, "loads", unused)
        got = _read_cover(str(path))
        assert got.cotree == c.cotree
        assert (got.graph.heads == c.graph.heads).all()

    def test_memory_bound(self, tmp_path):
        # the Petersen m = 4 cover document, 949,941 bytes: parsing it
        # whole peaks at about 12 MiB, the byte check at about 4.4 MiB
        c = build_zm_cover(named_graph("petersen"), 4)
        path = tmp_path / "cover.json"
        path.write_text("".join(_cover_text(c)))
        tracemalloc.start()
        try:
            got = _read_cover(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.graph.vertex_count == 40_960
        assert peak < 8 << 20

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_pretty_document_exports_the_same_bytes(self, fmt, tmp_path):
        graph = tmp_path / "k4.json"
        graph.write_text(json.dumps(graph_document(named_graph("k4"))))
        cover = tmp_path / "cover.json"
        assert main(["cover", "build", "--graph", str(graph), "--m", "3",
                     "--out", str(cover)]) == 0
        pretty = tmp_path / "pretty.json"
        pretty.write_text(json.dumps(json.loads(cover.read_text()), indent=4))
        outs = []
        for doc in (cover, pretty):
            out = tmp_path / f"{doc.stem}.{fmt}"
            assert main(["embed", "export", "--cover", str(doc), "--format",
                         fmt, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_embed_point_psi_builds_no_profile_table():
    # the cloud labels are read from one profile row, not the table
    c = build_zm_cover(named_graph("k4"), 3)
    v = embed_point_psi(c, 17)
    assert c._profiles is None
    cols = PsiEmbedding(c).cols
    bits = _cut_bits(c.base_profiles()[17, cols], 3)
    assert v.entries == tuple((int(k), 1) for k in np.flatnonzero(bits))
