import json

import pytest

from homcover.cli import cover_document, load_cover, main
from homcover import build_zm_cover, named_graph
from homcover.errors import ParseError
from homcover.graph import graph_document


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


class TestVerbs:
    def test_trees_count(self, k4_file, capsys):
        assert main(["trees", "count", "--graph", k4_file, "--per-edge"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body == {"total": 16, "avoiding": [8] * 6, "constant": True,
                        "N": 8}

    def test_trees_count_total_only(self, k4_file, capsys):
        assert main(["trees", "count", "--graph", k4_file]) == 0
        assert json.loads(capsys.readouterr().out) == {"total": 16}

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

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert main(["trees", "count", "--graph", str(p)]) == 2

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

    @pytest.mark.parametrize("tree", ["1,x,5", "1,3,99", "-1,3,5"])
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
    ])
    def test_unread_or_invalid_flag_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_internal_error(self, k4_file, monkeypatch, capsys):
        def broken(g):
            raise ValueError("bug")
        monkeypatch.setattr("homcover.cli.tree_counts", broken)
        assert main(["trees", "count", "--graph", k4_file]) == 3
        assert "internal error: ValueError: bug" in capsys.readouterr().err


def test_out_dir_env_var(tmp_path, k4_file, monkeypatch):
    monkeypatch.setenv("HOMCOVER_OUT", str(tmp_path / "outputs"))
    assert main(["trees", "count", "--graph", k4_file,
                 "--out", "counts.json"]) == 0
    body = json.loads((tmp_path / "outputs" / "counts.json").read_text())
    assert body["total"] == 16
