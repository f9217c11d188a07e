import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from homcover.cli import _frac_str, cover_document, load_cover, main
from homcover import (build_zm_cover, cayley_zm_power, compression_profile,
                      named_graph)
from homcover.errors import ParseError, SizeCapExceeded
from homcover.graph import graph_document
from homcover.trees import tree_counts


@pytest.fixture
def k4_file(tmp_path):
    doc = graph_document(named_graph("k4"))
    p = tmp_path / "k4.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def k4_cover_file(tmp_path, k4_file):
    out = tmp_path / "k4cover.json"
    assert main(["cover", "build", "--graph", k4_file, "--m", "3",
                 "--out", str(out)]) == 0
    return str(out)


class TestCoverDocument:
    def test_round_trip(self, k4):
        c = build_zm_cover(k4, 3)
        doc = cover_document(c)
        c2 = load_cover(doc)
        assert c2.m == 3 and c2.cotree == c.cotree
        assert graph_document(c2.graph) == graph_document(c.graph)

    def test_missing_key(self, k4):
        doc = cover_document(build_zm_cover(k4, 3))
        del doc["cotree"]
        with pytest.raises(ParseError):
            load_cover(doc)

    def test_tampered_document(self, k4):
        doc = cover_document(build_zm_cover(k4, 3))
        doc["edges"] = doc["edges"][:-1]
        with pytest.raises(ParseError):
            load_cover(doc)

    @pytest.mark.parametrize("tamper", [
        lambda doc: doc.pop("edges"),
        lambda doc: doc.pop("vertices"),
        lambda doc: doc.update(edges={}),
        lambda doc: doc["edges"][5].reverse(),
        lambda doc: doc.update(vertices=doc["vertices"] + 1),
        lambda doc: doc.update(cotree=[3, 4, 5, 99]),
        lambda doc: doc.update(cotree=[3, 4, 5, -1]),
        lambda doc: doc.update(cotree=[3, 4, 5, 3]),
        lambda doc: doc.update(cotree=[5, 4, 3]),
    ])
    def test_cover_edges_checked_pair_by_pair(self, k4, tamper):
        doc = cover_document(build_zm_cover(k4, 3))
        tamper(doc)
        with pytest.raises(ParseError, match="does not match"):
            load_cover(doc)

    @pytest.mark.parametrize("pair", [
        lambda t, h: [t],
        lambda t, h: [t, h, h],
        lambda t, h: [t, None],
        lambda t, h: None,
        lambda t, h: [[t], h],
        lambda t, h: [[t, h]],
        lambda t, h: [str(t), h],
        lambda t, h: [t, {"head": h}],
        lambda t, h: [t + 2 ** 63, h],
        lambda t, h: [t + 2 ** 64, h],
        lambda t, h: [t - 2 ** 64, h],
        lambda t, h: [t + 0.5, h],
        lambda t, h: [float("nan"), h],
    ], ids=["short", "long", "none", "none_pair", "nested", "wrapped",
            "string", "object", "above_2_63", "above_2_64", "below_-2_63",
            "fraction", "nan"])
    def test_malformed_edge_exits_2(self, k4, pair, tmp_path, capsys):
        doc = cover_document(build_zm_cover(k4, 3))
        doc["edges"][5] = pair(*doc["edges"][5])
        with pytest.raises(ParseError, match="does not match"):
            load_cover(doc)
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc))
        assert main(["embed", "export", "--cover", str(path)]) == 2
        err = capsys.readouterr().err
        assert "does not match" in err and "internal error" not in err

    def test_long_string_edge_costs_no_memory(self, k4):
        # One 100,000-character entry among 36 numbers.  An edge array whose
        # type that entry chose would hold 36 strings of that width, 14 MB.
        doc = cover_document(build_zm_cover(k4, 3))
        doc["edges"][5][0] = "7" * 100_000
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="does not match"):
                load_cover(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_huge_base_rejected(self, k4):
        doc = cover_document(build_zm_cover(k4, 3))
        doc["base"]["vertices"] = 10 ** 12
        with pytest.raises(SizeCapExceeded):
            load_cover(doc)

    def test_edges_compare_as_numbers(self, k4):
        # as in Python, 1.0 and True equal 1
        c = build_zm_cover(k4, 3)
        doc = cover_document(c)
        doc["edges"] = [[float(t), True if h == 1 else h]
                        for t, h in doc["edges"]]
        assert load_cover(doc).cotree == c.cotree

    def test_edgeless_round_trip(self):
        c = build_zm_cover(named_graph("complete:1"), 3)
        doc = json.loads(json.dumps(cover_document(c)))
        assert doc["edges"] == [] and doc["base"]["edges"] == []
        c2 = load_cover(doc)
        assert graph_document(c2.graph) == {"vertices": 1, "edges": []}


class TestWorkloadBytes:
    """The `export` benchmark's CLI chain writes the bytes it always has.

    The JSON export of the same cover is pinned in tests/test_selects.py,
    by TestEmbedExport.test_memory_does_not_grow_with_the_text.
    """

    def test_petersen_m4_chain(self, tmp_path):
        graph = tmp_path / "petersen.json"
        graph.write_text(json.dumps(graph_document(named_graph("petersen"))))
        cover = tmp_path / "cover.json"
        assert main(["cover", "build", "--graph", str(graph), "--m", "4",
                     "--out", str(cover)]) == 0
        csv = tmp_path / "embedding.csv"
        assert main(["embed", "export", "--cover", str(cover), "--format",
                     "csv", "--out", str(csv)]) == 0
        got = [(p.stat().st_size, hashlib.sha256(p.read_bytes()).hexdigest())
               for p in (cover, csv)]
        assert got == [
            (949_941, "1e747462cb77319ffea1085a09da36d90353de30"
                      "8ee2e524d888be10bc34c711"),
            (6_174_037, "0a878c6f910948108d77cca3dd5e53e439f875d8"
                        "c9c9afcee656fc3aa5cd593f"),
        ]


class TestVerbs:
    def test_trees_count(self, k4_file, capsys):
        assert main(["trees", "count", "--graph", k4_file, "--per-edge"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body == {"total": 16, "avoiding": [8] * 6, "constant": True,
                        "N": 8}

    def test_trees_count_total_only(self, k4_file, capsys):
        assert main(["trees", "count", "--graph", k4_file]) == 0
        assert json.loads(capsys.readouterr().out) == {"total": 16}

    @pytest.mark.parametrize("name", ["k4", "petersen", "doubled_edge",
                                      "cycle:30", "complete:1"])
    def test_trees_count_total_skips_the_adjugate(self, name, tmp_path,
                                                  monkeypatch, capsys):
        # the total alone is one determinant; the adjugate's N_e go unread
        g = named_graph(name)
        expected = json.dumps({"total": tree_counts(g).total}) + "\n"
        p = tmp_path / "g.json"
        p.write_text(json.dumps(graph_document(g)))

        def unused(g):
            raise AssertionError("tree_counts called without --per-edge")
        monkeypatch.setattr("homcover.cli.tree_counts", unused)
        assert main(["trees", "count", "--graph", str(p)]) == 0
        assert capsys.readouterr().out == expected

    def test_cover_build(self, k4_cover_file):
        doc = json.loads(open(k4_cover_file).read())
        assert doc["vertices"] == 108 and doc["m"] == 3
        assert len(doc["edges"]) == 162

    def test_cover_build_explicit_tree(self, k4_file, tmp_path, capsys):
        assert main(["cover", "build", "--graph", k4_file, "--m", "2",
                     "--tree", "1,3,5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["cotree"]) == [0, 2, 4]

    def test_metrics_profile(self, k4_cover_file, capsys):
        assert main(["metrics", "profile", "--cover", k4_cover_file,
                     "--mode", "dq", "--samples", "20", "--seed", "7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,pairs,min,max"
        for line in lines[1:]:
            t, pairs, lo, hi = line.split(",")
            assert int(pairs) > 0
            if int(t) < 3:
                assert lo == hi == t

    @pytest.mark.parametrize("labels", [
        "lists", "objects", "repeated", "mixed"])
    def test_metrics_profile_with_foreign_labels(self, tmp_path, capsys,
                                                 labels):
        # labels that cannot steer an automorphism skip the symmetry; the
        # profile must equal that of the unlabelled and the Cayley-labelled
        # documents
        doc = cover_document(build_zm_cover(cayley_zm_power(3, 2), 2))
        cayley = doc["base"]["labels"]
        foreign = {"lists": [[x] for x in cayley],
                   "objects": [{"generator": x} for x in cayley],
                   "repeated": [0] * len(cayley),
                   "mixed": [[0], 1, {"a": None}] * (len(cayley) // 3)}
        outputs = []
        for base_labels in (cayley, None, foreign[labels]):
            doc["base"]["labels"] = base_labels
            path = tmp_path / "cover.json"
            path.write_text(json.dumps(doc))
            for mode in ("dq", "l2"):
                assert main(["metrics", "profile", "--cover", str(path),
                             "--mode", mode, "--samples", "100",
                             "--seed", "2"]) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[:2] == outputs[2:4] == outputs[4:]
        assert outputs[0].startswith("t,pairs,min,max\n")

    @pytest.mark.parametrize("mode", ["dq", "l2"])
    def test_metrics_profile_exhaustive(self, k4_cover_file, capsys, mode):
        # --samples at least |V~| = 108 profiles every source
        c = load_cover(json.loads(Path(k4_cover_file).read_text()))
        assert c.graph.vertex_count == 108
        assert main(["metrics", "profile", "--cover", k4_cover_file,
                     "--mode", mode, "--samples", "108"]) == 0
        lines = capsys.readouterr().out.splitlines()
        want = compression_profile(c, None, mode).rows
        assert lines == ["t,pairs,min,max"] + [
            f"{r.t},{r.pair_count},{_frac_str(r.min_val)},"
            f"{_frac_str(r.max_val)}" for r in want]
        assert sum(int(line.split(",")[1]) for line in lines[1:]) == 108 ** 2

    def test_metrics_profile_deterministic(self, k4_cover_file, capsys):
        args = ["metrics", "profile", "--cover", k4_cover_file,
                "--samples", "10", "--seed", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_embed_export_csv(self, k4_cover_file, capsys):
        assert main(["embed", "export", "--cover", k4_cover_file,
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("# m=3 dim=18")
        assert len(lines) == 1 + 108
        first = lines[1].split(",")
        assert first[0] == "0"
        assert all(":" in part for part in first[1:])

    def test_embed_export_json(self, k4_cover_file, capsys):
        assert main(["embed", "export", "--cover", k4_cover_file,
                     "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["m"] == 3 and body["dim"] == 18
        assert len(body["vectors"]) == 108

    def test_tower_build(self, tmp_path, capsys):
        out = tmp_path / "tw"
        assert main(["tower", "build", "--rank", "2", "--m", "2",
                     "--levels", "3", "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [lvl["vertices"] for lvl in manifest["levels"]] == [4, 8, 16]
        assert [lvl["girth"] for lvl in manifest["levels"]] == [4, 8, 16]
        assert not manifest["truncated"]
        level1 = json.loads((out / "level1.json").read_text())
        assert level1["vertices"] == 4

    def test_tower_build_m3_bytes(self, tmp_path, capsys):
        # level 2's edge list is written from its derived tails
        out = tmp_path / "tw"
        assert main(["tower", "build", "--rank", "2", "--m", "3",
                     "--levels", "2", "--out-dir", str(out)]) == 0
        got = {p.name: (p.stat().st_size,
                        hashlib.sha256(p.read_bytes()).hexdigest())
               for p in sorted(out.iterdir())}
        assert got == {
            "level1.json": (237, "a80bbdf39164d817e7f23861aed7dea1"
                                 "21ff2d2a92e735126f0ef7f7d31c7c44"),
            "level2.json": (18_687_468, "9390d9c5cd95d25dbb4d7f7b81a98b6c"
                                        "043a7484e90cf45656da222c8bdd784b"),
            "manifest.json": (252, "ada7eaad750b9b428acab8eb640fbf6d"
                                   "7385c90a2cfefc56a1f34d6fce5358d6"),
        }

    def test_suite_run_pass(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["suite", "run", "--graphs", "doubled_edge",
                     "--m", "3", "--samples", "10", "--out", str(out)])
        assert code == 0
        body = json.loads(out.read_text())
        assert body["overall"] == "pass"
        assert "overall: pass" in capsys.readouterr().out

    def test_suite_run_fault_exit_code(self, tmp_path, capsys):
        code = main(["suite", "run", "--graphs", "doubled_edge",
                     "--m", "3", "--samples", "10", "--fault", "compare"])
        assert code == 1

    @pytest.mark.parametrize("check", ["compare", "conglifts", "girth_growth"])
    def test_fault_that_poisons_nothing(self, check, tmp_path, capsys):
        # one vertex and no cycle: compare has the single pair (0, 0), and
        # conglifts and girth_growth are skipped, so no fault can show
        out = tmp_path / "rep.json"
        assert main(["suite", "run", "--graphs", "complete:1", "--checks",
                     check, "--fault", check, "--out", str(out)]) == 2
        assert (f"fault {check!r} poisoned nothing"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("name", ["complete:1", "path:1"])
    def test_suite_compare_base_without_cycle(self, name, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["suite", "run", "--graphs", name, "--checks", "compare",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["overall"] == "pass"

    @pytest.mark.parametrize("name", ["complete:1", "path:1"])
    def test_suite_defaults_base_without_cycle(self, name, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["suite", "run", "--graphs", name, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["overall"] == "pass"
        skipped = {r["check"]: r for r in report["checks"]
                   if r["note"] == "skipped: base has no cycle"}
        assert sorted(skipped) == ["conglifts", "girth_growth"]
        assert all(r["trials"] == r["violations"] == 0
                   for r in skipped.values())

    def test_suite_single_loop_runs_treeavg(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["suite", "run", "--graphs", "cycle:1", "--checks",
                     "treeavg", "--out", str(out)]) == 0
        [rec] = json.loads(out.read_text())["checks"]
        assert (rec["trials"], rec["violations"], rec["note"]) == (9, 0, "")

    def test_trees_count_loop_base(self, tmp_path, capsys):
        # the loop's N_e is tau; `constant` and `N` still read the
        # non-loop edges only
        p = tmp_path / "loop.json"
        p.write_text(json.dumps({"vertices": 2,
                                 "edges": [[0, 1], [0, 1], [0, 0]]}))
        assert main(["trees", "count", "--graph", str(p), "--per-edge"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body == {"total": 2, "avoiding": [1, 1, 2], "constant": True,
                        "N": 1}

    def test_suite_thread_invariance(self, tmp_path):
        outs = []
        for threads in ("1", "3"):
            out = tmp_path / f"rep{threads}.json"
            assert main(["suite", "run", "--graphs", "doubled_edge,k4",
                         "--m", "3", "--samples", "10", "--seed", "5",
                         "--threads", threads, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert main(["trees", "count", "--graph", "/nonexistent.json"]) == 2

    def test_bad_json(self, tmp_path, capsys):
        # not JSON; UTF-16 bytes; an integer over the 4,300-digit limit of
        # int(); nesting past the recursion limit
        for i, text in enumerate([b"{nope", b"\xff\xfe{\x00}\x00",
                                  b'{"vertices": ' + b"9" * 5000 + b"}",
                                  b"[" * 100_000]):
            p = tmp_path / f"bad{i}.json"
            p.write_bytes(text)
            assert main(["trees", "count", "--graph", str(p)]) == 2
            err = capsys.readouterr().err
            assert "internal error" not in err and str(p) in err

    def test_unallocatable_profiles_exit_2(self, long_cycle_cover, tmp_path,
                                           capsys):
        # the cover loads, but its traversal profiles cannot be
        # allocated: a rejected input
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(cover_document(long_cycle_cover)))
        assert main(["embed", "export", "--cover", str(path),
                     "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert "80000000000 bytes" in err and "internal error" not in err
        assert not (tmp_path / "out.csv").exists()

    def test_bad_graph_document(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"vertices": 2}))
        assert main(["trees", "count", "--graph", str(p)]) == 2

    def test_bridge_base_rejected(self, tmp_path):
        p = tmp_path / "path.json"
        p.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2]]}))
        assert main(["cover", "build", "--graph", str(p), "--m", "3"]) == 2

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["cover", "build"])  # missing required args
        assert exc.value.code == 2

    @pytest.mark.parametrize("tree", ["1,x,5", "1,3,99", "-1,3,5", "1,3,5,1"])
    def test_bad_tree_ids(self, k4_file, tree, capsys):
        assert main(["cover", "build", "--graph", k4_file, "--m", "3",
                     f"--tree={tree}"]) == 2
        assert "--tree" in capsys.readouterr().err

    def test_unknown_check(self, capsys):
        assert main(["suite", "run", "--graphs", "doubled_edge",
                     "--checks", "compare,nope"]) == 2
        assert "unknown check 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["nope", "l2"])
    def test_fault_outside_checks(self, fault, capsys):
        assert main(["suite", "run", "--graphs", "doubled_edge",
                     "--checks", "compare", "--fault", fault]) == 2
        assert f"fault {fault!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["cycle:x", "cycle:0", "cycle:-2",
                                      "complete:x", "complete:0", "path:-1",
                                      "cycle:"])
    def test_bad_graph_size(self, name, capsys):
        assert main(["suite", "run", "--graphs", name,
                     "--checks", "compare"]) == 2
        assert "must be an integer >= 1" in capsys.readouterr().err

    def test_endpoint_out_of_range(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"vertices": 2, "edges": [[0, 2]]}))
        assert main(["trees", "count", "--graph", str(p)]) == 2

    @pytest.mark.parametrize("verb", [["cover", "build", "--m", "3"],
                                      ["trees", "count"]])
    @pytest.mark.parametrize("n", [10 ** 12, 2 ** 63])
    def test_huge_vertex_count_rejected(self, verb, n, tmp_path, capsys):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"vertices": n, "edges": [[0, 1], [1, 0]]}))
        assert main(verb + ["--graph", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"graph has {n} vertices" in err and "internal error" not in err

    def test_bad_cover_modulus(self, k4, tmp_path):
        doc = cover_document(build_zm_cover(k4, 3))
        doc["m"] = "3"
        p = tmp_path / "cover.json"
        p.write_text(json.dumps(doc))
        assert main(["embed", "export", "--cover", str(p)]) == 2

    def test_tower_rank_rejected(self, tmp_path):
        assert main(["tower", "build", "--rank", "1", "--m", "3",
                     "--levels", "1", "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["tower", "build", "--rank", "2", "--m", "2", "--levels", "1",
         "--out-dir", "tw", "--size-cap", "5"],
        ["trees", "count", "--graph", "g.json", "--format", "csv"],
        ["cover", "build", "--graph", "g.json", "--m", "3", "--seed", "1"],
        ["embed", "export", "--cover", "c.json", "--threads", "2"],
        ["metrics", "profile", "--cover", "c.json", "--tree-cap", "9"],
        ["metrics", "profile", "--cover", "c.json", "--samples", "-1"],
        ["suite", "run", "--samples", "-1"],
    ])
    def test_unread_or_invalid_flag_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_profile_zero_samples_rejected(self, k4_cover_file, capsys):
        # an empty profile is no result: exit 2, not a header alone
        assert main(["metrics", "profile", "--cover", k4_cover_file,
                     "--samples", "0"]) == 2
        captured = capsys.readouterr()
        assert "--samples" in captured.err
        assert "internal error" not in captured.err and not captured.out

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, threads, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["suite", "run", "--graphs", "doubled_edge",
                     "--threads", threads, "--out", str(out)]) == 2
        assert "threads must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_internal_error(self, k4_file, monkeypatch, capsys):
        def broken(g):
            raise ValueError("bug")
        monkeypatch.setattr("homcover.cli.count_spanning_trees", broken)
        assert main(["trees", "count", "--graph", k4_file]) == 3
        assert "internal error: ValueError: bug" in capsys.readouterr().err

    @pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["new", "kept"])
    @pytest.mark.parametrize("exc,code", [(MemoryError(), 3),
                                          (SizeCapExceeded("too big"), 2)],
                             ids=["internal", "usage"])
    def test_failed_export_leaves_no_partial_file(
            self, k4_cover_file, tmp_path, monkeypatch, capsys, exc, code, old):
        def broken(c, layout, dim):
            yield "# header\n"
            raise exc
        monkeypatch.setattr("homcover.cli._export_csv", broken)
        out_dir = tmp_path / "exports"
        out_dir.mkdir()
        out = out_dir / "x.csv"
        if old is not None:
            out.write_bytes(old)
        assert main(["embed", "export", "--cover", k4_cover_file, "--format",
                     "csv", "--out", str(out)]) == code
        capsys.readouterr()
        if old is None:
            assert list(out_dir.iterdir()) == []
        else:
            assert list(out_dir.iterdir()) == [out]
            assert out.read_bytes() == old

    def test_export_replaces_old_file(self, k4_cover_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        out.write_text("old bytes\n")
        assert main(["embed", "export", "--cover", k4_cover_file, "--format",
                     "csv", "--out", str(out)]) == 0
        assert main(["embed", "export", "--cover", k4_cover_file,
                     "--format", "csv"]) == 0
        assert out.read_text() == capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "k4.json", "k4cover.json", "x.csv"]


def test_out_dir_env_var(tmp_path, k4_file, monkeypatch):
    monkeypatch.setenv("HOMCOVER_OUT", str(tmp_path / "outputs"))
    assert main(["trees", "count", "--graph", k4_file,
                 "--out", "counts.json"]) == 0
    body = json.loads((tmp_path / "outputs" / "counts.json").read_text())
    assert body["total"] == 16


def test_python_m_homcover(tmp_path, k4_cover_file, capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-m", "homcover", "embed", "export", "--cover",
         k4_cover_file, "--format", "csv"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
    assert main(["embed", "export", "--cover", k4_cover_file,
                 "--format", "csv"]) == 0
    assert run.stdout == capsys.readouterr().out
    usage = subprocess.run([sys.executable, "-m", "homcover", "cover"],
                           capture_output=True, text=True, env=env,
                           cwd=tmp_path, timeout=120)
    assert usage.returncode == 2 and usage.stderr.startswith("usage: homcover")
