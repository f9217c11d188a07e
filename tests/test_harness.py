import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homcover
from homcover import (MultiGraph, SuiteConfig, Walk, build_zm_cover,
                      is_m_congruent, lift_path, make_congruence_pair,
                      named_graph, run_suite, sample_uniform_tree,
                      some_spanning_tree)
from homcover.cli import main
from homcover.errors import (FaultNotInjected, InvalidParameter, ParseError,
                             PathMismatch)
import homcover.cover as cover_mod
from homcover.cover import _lift_block
from homcover.harness import (_WalkTables, check_conglifts, check_isometry,
                              check_l2)
from homcover.graph import cycle_graph, path_graph
from homcover.trees import _tree_from_edge_set

from conftest import (connected_multigraphs, fingerprint, label_list_lift_path,
                      walk_to_root)


class TestCongruencePairs:
    @pytest.mark.parametrize("name", ["k4", "petersen", "doubled_edge"])
    def test_generated_pairs_classified_correctly(self, name):
        g = named_graph(name)
        tree = some_spanning_tree(g)
        rng = random.Random(0)
        for _ in range(100):
            w1, w2 = make_congruence_pair(g, tree, 3, rng, congruent=True)
            assert is_m_congruent(g, w1, w2, 3)
            w1, w2 = make_congruence_pair(g, tree, 3, rng, congruent=False)
            assert not is_m_congruent(g, w1, w2, 3)

    @pytest.mark.parametrize("g", [MultiGraph(1, []), path_graph(3)],
                             ids=["point", "path3"])
    def test_base_without_cycle_rejected(self, g):
        tree = some_spanning_tree(g)
        with pytest.raises(InvalidParameter):
            make_congruence_pair(g, tree, 3, random.Random(0), congruent=True)

    def test_pairs_share_endpoints(self, k4):
        tree = some_spanning_tree(k4)
        rng = random.Random(1)
        for _ in range(50):
            w1, w2 = make_congruence_pair(k4, tree, 3, rng, congruent=False)
            assert w1.start == w2.start
            assert w1.end(k4) == w2.end(k4)


class TestSuite:
    def test_small_suite_passes(self):
        cfg = SuiteConfig(graphs=("doubled_edge", "k4"), m=3, seed=3,
                          samples=20)
        report = run_suite(cfg)
        assert report.passed
        assert {r.check for r in report.records} == set(cfg.checks)

    def test_empty_checks(self):
        report = run_suite(SuiteConfig(graphs=("k4",), checks=()))
        assert report.passed and report.records == []

    def test_report_shape(self):
        report = run_suite(SuiteConfig(graphs=("doubled_edge",), samples=10))
        body = json.loads(report.to_json())
        assert body["overall"] == "pass"
        for rec in body["checks"]:
            assert rec["violations"] == 0
            assert len(rec["details"]) <= 10

    def test_unknown_check(self):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(graphs=("k4",), checks=("nope",)))

    @pytest.mark.parametrize("fault,checks", [("nope", ("compare",)),
                                              ("l2", ("compare",)),
                                              ("compare", ())])
    def test_fault_outside_checks_rejected(self, fault, checks, monkeypatch):
        def no_cover(*args, **kwargs):
            raise AssertionError("a cover was built")
        monkeypatch.setattr("homcover.harness.build_zm_cover", no_cover)
        cfg = SuiteConfig(graphs=("doubled_edge",), checks=checks, fault=fault)
        with pytest.raises(ParseError, match=repr(fault)):
            run_suite(cfg)

    @pytest.mark.parametrize("check", ["compare", "conglifts", "isometry",
                                       "treeavg", "l2", "girth_growth",
                                       "ne_constant"])
    def test_fault_injection_detected(self, check):
        cfg = SuiteConfig(graphs=("doubled_edge",), m=3, samples=10,
                          fault=check)
        report = run_suite(cfg)
        assert not report.passed
        failing = [r for r in report.records if not r.passed]
        assert [r.check for r in failing] == [check]

    @pytest.mark.parametrize("check", ["compare", "conglifts", "girth_growth"])
    def test_fault_that_poisons_nothing_rejected(self, check):
        cfg = SuiteConfig(graphs=("complete:1",), checks=(check,), fault=check)
        with pytest.raises(FaultNotInjected, match=repr(check)):
            run_suite(cfg)

    def test_fault_shown_on_one_instance_suffices(self):
        cfg = SuiteConfig(graphs=("complete:1", "doubled_edge"), samples=10,
                          checks=("compare",), fault="compare")
        report = run_suite(cfg)
        assert [r.passed for r in report.records] == [True, False]

    @pytest.mark.parametrize("bad", [dict(threads=0), dict(threads=-3),
                                     dict(samples=-1)])
    def test_bad_threads_or_samples_rejected(self, bad, monkeypatch):
        def no_cover(*args, **kwargs):
            raise AssertionError("a cover was built")
        monkeypatch.setattr("homcover.harness.build_zm_cover", no_cover)
        with pytest.raises(InvalidParameter):
            run_suite(SuiteConfig(graphs=("doubled_edge",), **bad))

    def test_thread_count_invariance(self):
        base = dict(graphs=("doubled_edge", "k4"), m=3, seed=11, samples=15)
        a = run_suite(SuiteConfig(**base, threads=1))
        b = run_suite(SuiteConfig(**base, threads=4))
        c = run_suite(SuiteConfig(**base, threads=1))
        assert a.to_json() == b.to_json() == c.to_json()

    def test_two_threads_build_each_factor_once(self, monkeypatch):
        # each cache is filled before the pool starts, on the main thread
        built = []
        for name in ("_deck_part", "_tree_steps", "tree_counts"):
            def counted(*args, _build=getattr(cover_mod, name), _name=name):
                built.append(_name)
                assert threading.current_thread() is threading.main_thread()
                return _build(*args)
            monkeypatch.setattr(cover_mod, name, counted)
        graphs = ("doubled_edge", "k4", "c5")
        report = run_suite(SuiteConfig(graphs=graphs, m=3, seed=5,
                                       samples=20, threads=2))
        assert report.passed
        assert sorted(built) == (["_deck_part"] * 3 + ["_tree_steps"] * 3
                                 + ["tree_counts"] * 3)

    @pytest.mark.parametrize("checks", [("treeavg",), ("compare",)])
    def test_tree_counts_only_where_a_check_reads_them(self, checks,
                                                       monkeypatch):
        # treeavg skips covers above SAMPLE_THRESHOLD before it counts
        # trees (Petersen m = 3 has 7,290 vertices), and compare never
        # reads them, so neither run counts them for a skipped cover
        built = []
        count = cover_mod.tree_counts
        monkeypatch.setattr(cover_mod, "tree_counts",
                            lambda g: built.append(g) or count(g))
        graphs = ("k4", "petersen")
        report = run_suite(SuiteConfig(graphs=graphs, m=3, samples=5,
                                       checks=checks))
        assert report.passed
        assert len(built) == (1 if checks == ("treeavg",) else 0)

    def test_long_cycle_tree_checks_within_cpu_budget(self):
        # one adjugate for all 150 N_e of the base, and the exact tree
        # average reads them instead of enumerating the 150 trees; the
        # per-edge determinants took about 11 s of CPU on a 2-vCPU Xeon
        start = time.process_time()
        report = run_suite(SuiteConfig(graphs=("cycle:150",), m=2,
                                       checks=("ne_constant", "treeavg")))
        assert time.process_time() - start < 4.0
        assert report.passed
        assert [(r.check, r.trials, r.violations, r.note)
                for r in report.records] == [("ne_constant", 1, 0, ""),
                                             ("treeavg", 90_000, 0, "")]

    def test_import_leaves_thread_pool_unloaded(self):
        # only run_suite's threaded branch uses the pool
        src = os.path.dirname(os.path.dirname(homcover.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys, homcover; "
                 "print('concurrent.futures' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             check=True, capture_output=True, text=True)
        assert out.stdout == "False\n"

    def test_seed_changes_nothing_structural(self):
        a = run_suite(SuiteConfig(graphs=("k4",), seed=1, samples=10))
        b = run_suite(SuiteConfig(graphs=("k4",), seed=2, samples=10))
        assert a.passed and b.passed

    def test_m2_suite(self):
        report = run_suite(SuiteConfig(graphs=("doubled_edge", "k4"), m=2,
                                       samples=10))
        assert report.passed


class TestConglifts:
    @pytest.mark.parametrize("name", ["k4", "petersen"])
    def test_lift_that_ignores_a_generator_fails(self, name, monkeypatch):
        # congruent pairs still lift together, so only the non-congruent
        # half sees this: each of its pairs through generator 0 lifts
        # together and is a violation
        c = build_zm_cover(named_graph(name), 3)
        deck = c.deck_size
        heads = c.graph.heads.copy()
        block = slice(c.cotree[0] * deck, (c.cotree[0] + 1) * deck)
        heads[block] += np.arange(deck) - heads[block] % deck  # unshifted
        # the same edges built with their arc table: generator 0, the
        # digit of stride 1, keeps the label when crossed
        moved = cover_mod._digit_move

        def unmoved_first(stride, m, width):
            return (np.zeros(width, dtype=np.int64) if stride == 1
                    else moved(stride, m, width))
        monkeypatch.setattr(cover_mod, "_digit_move", unmoved_first)
        broken = build_zm_cover(named_graph(name), 3)
        assert np.array_equal(broken.graph.heads, heads)
        rec = check_conglifts(broken, name, 1000, seed=4)
        assert rec.violations >= 50
        assert all(d["trial"] >= 1000 for d in rec.details)

    def test_calls_no_per_walk_api(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("per-walk API called")
        for target in ("homcover.cover.CoverGraph.encode_vertex",
                       "homcover.graph.Walk.vertices"):
            monkeypatch.setattr(target, boom)
        for name in ("lift_path", "is_m_congruent"):
            monkeypatch.setattr(f"homcover.cover.{name}", boom)
            monkeypatch.setattr(f"homcover.harness.{name}", boom,
                                raising=False)
        c = build_zm_cover(named_graph("k4"), 3)
        assert check_conglifts(c, "k4", 300, seed=1).violations == 0

    def test_closes_mod_per_walk(self, k4):
        tables = _WalkTables(k4, some_spanning_tree(k4))
        loop = tables.loops[0]
        walks = [[0, 1], [0], [], loop, loop * 3, [0, 6, 7, 1] + loop * 2]
        assert tables.closes_mod(walks, 3).tolist() == [
            True, False, True, False, True, False]

    def test_heap_peak_below_compare(self):
        c = build_zm_cover(named_graph("petersen"), 3)
        c.base_profiles()
        tracemalloc.start()
        try:
            check_conglifts(c, "petersen", 1000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_800_000


class TestHammingChecks:
    @pytest.mark.parametrize("check", [check_isometry, check_l2])
    def test_flipped_cut_bit_is_reported(self, check, monkeypatch):
        # d_Q is untouched; only the embedding the check reads is wrong,
        # so every pair with vertex 0, in either order, is a violation
        real = homcover.harness.packed_embed_matrix

        def flipped(c):
            packed = real(c).copy()
            packed[0, 0] ^= np.uint64(1)
            return packed
        monkeypatch.setattr("homcover.harness.packed_embed_matrix", flipped)
        c = build_zm_cover(named_graph("k4"), 3)
        rec = check(c, "k4", 10, seed=0)
        n = c.graph.vertex_count
        assert (rec.trials, rec.violations) == (n * n, 2 * (n - 1))
        assert rec.details[0] == {"source": 0, "target": 1}


def signed_arc_walk(g, rng, length):
    """A seeded random walk from a random vertex."""
    start = cur = rng.randrange(g.vertex_count)
    arcs = []
    for _ in range(length):
        e, d, cur = rng.choice(g.adjacency_of(cur))
        arcs.append(2 * e + (d == -1))
    return Walk(start, tuple(arcs))


def assert_walk_tables_match_walk_to_root(g, tree):
    tables = _WalkTables(g, tree)
    for v in range(g.vertex_count):
        up = list(walk_to_root(tree, g, v).steps)
        assert tables.up[v] == up
        assert tables.down[v] == [a ^ 1 for a in reversed(up)]


class TestWalkTables:
    @pytest.mark.parametrize("name", ["doubled_edge", "k4", "c5", "petersen",
                                      "cycle:1", "cycle:7"])
    def test_named_bases_match_walk_to_root(self, name):
        g = named_graph(name)
        for tree in (some_spanning_tree(g), sample_uniform_tree(g, 5)):
            assert_walk_tables_match_walk_to_root(g, tree)

    @given(connected_multigraphs(max_vertices=9), st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_multigraphs_match_walk_to_root(self, g, seed):
        assert_walk_tables_match_walk_to_root(g, some_spanning_tree(g))
        assert_walk_tables_match_walk_to_root(g, sample_uniform_tree(g, seed))

    def test_long_cycle_within_cpu_budget(self):
        # each vertex's walk extends its parent's; one walk_to_root per
        # vertex costs the sum of the depths, 4.5 million Python steps
        g = named_graph("cycle:3000")
        tree = some_spanning_tree(g)
        start = time.process_time()
        tables = _WalkTables(g, tree)
        assert time.process_time() - start < 2.0
        assert len(tables.up[1500]) == 1500


class TestBlockLift:
    """cover._lift_block, and lift_path, its block of one, against the
    label-list oracle."""

    # k4 and petersen at m = 257 exceed the default size cap
    @pytest.mark.parametrize("name,m", [
        *((name, m) for name in ("doubled_edge", "cycle:1")
          for m in (2, 3, 5, 257)),
        *((name, m) for name in ("k4", "petersen") for m in (2, 3, 5))])
    def test_matches_lift_path(self, name, m):
        g = named_graph(name)
        c = build_zm_cover(g, m)
        rng = random.Random(m)
        starts, walks, oracle = [], [], []
        for _ in range(120):
            w = signed_arc_walk(g, rng, rng.randrange(0, 40))
            start = w.start * c.deck_size + rng.randrange(c.deck_size)
            starts.append(start)
            walks.append(w.steps)
            oracle.append(label_list_lift_path(c, w, start))
            assert lift_path(c, w, start) == oracle[-1]
        ends = _lift_block(c, starts, walks)[0]
        assert ends.tolist() == [end for end, _edges in oracle]

    def test_empty_walk_returns_start(self, k4):
        c = build_zm_cover(k4, 3)
        starts = [5, 17, 100]
        ends, arcs = _lift_block(c, starts, [[], [], []])
        assert ends.tolist() == starts and arcs.size == 0

    def test_discontiguous_step_raises(self, k4):
        c = build_zm_cover(k4, 3)
        e = k4.adjacency_of(0)[0][0]
        t, h = k4.endpoints(e)
        far = next(e2 for e2 in range(k4.edge_count)
                   if h not in k4.endpoints(e2))
        with pytest.raises(PathMismatch):
            _lift_block(c, [t * c.deck_size], [[2 * e, 2 * far]])

    def test_start_off_the_walk_raises(self, k4):
        c = build_zm_cover(k4, 3)
        e = 0
        t, h = k4.endpoints(e)
        with pytest.raises(PathMismatch):
            _lift_block(c, [h * c.deck_size], [[2 * e]])

    def test_least_failing_step_is_named(self, k4):
        # the fibers are checked once the block is lifted: a walk broken
        # at step 2 beside a shorter one broken at step 1 reports step 1,
        # and the steps after a break reach vertices in range
        c = build_zm_cover(k4, 3)
        assert [k4.endpoints(e) for e in (0, 1)] == [(0, 1), (0, 2)]
        at_step_2 = [0, 1, 3, 0, 0]  # 0 -> 1 -> 0, then edge 1 back from 2
        at_step_1 = [0, 2]  # 0 -> 1, then edge 1 forward from 0
        with pytest.raises(PathMismatch, match="step 1 of"):
            _lift_block(c, [1, 2], [at_step_2, at_step_1])
        with pytest.raises(PathMismatch, match="step 2 of"):
            _lift_block(c, [1], [at_step_2])
        with pytest.raises(PathMismatch, match="step 0 of"):
            _lift_block(c, [0, c.deck_size], [[0, 1], [0]])


#: sha256 of the `suite run --out` report for each argument list, with
#: its exit code; a change of the walk draw order changes these.
GOLDEN_REPORTS = [
    (["--seed", "7"], 0,
     "df2cb83172c589573eca163b9b743b25dc7d037a063492282cb15e2c5d8d63c0"),
    (["--seed", "3"], 0,
     "8709f75fc8ba5f68d61de8893d3fd200a3456058bba771f94607b37aae44a781"),
    (["--seed", "7", "--fault", "conglifts"], 1,
     "6d5f3b5e32c1d9534e1712bab43fa2fbd6f2cfa5fbbc3816b48e72a05ffb81ff"),
    (["--graphs", "doubled_edge,cycle:1,k4", "--m", "5",
      "--checks", "conglifts", "--seed", "11"], 0,
     "16156dbdaf5b98ed5863a25f1abfc90a0d327eb0f821ed9720dff13df31c4eb3"),
]


class TestGoldenReports:
    @pytest.mark.parametrize("args,code,digest", GOLDEN_REPORTS,
                             ids=["seed7", "seed3", "fault", "conglifts-m5"])
    def test_report_digest(self, args, code, digest, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["suite", "run", *args, "--out", str(out)]) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("args,code,digest", GOLDEN_REPORTS[:2],
                             ids=["seed7", "seed3"])
    def test_two_threads_same_bytes(self, args, code, digest, tmp_path,
                                    capsys):
        out = tmp_path / "report.json"
        assert main(["suite", "run", *args, "--threads", "2",
                     "--out", str(out)]) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestFingerprint:
    def test_tree_independent_covers(self, k4):
        c1 = build_zm_cover(k4, 3)
        other = _tree_from_edge_set(k4, [1, 3, 5])
        c2 = build_zm_cover(k4, 3, tree=other)
        assert c2.tree0.tree_edges != c1.tree0.tree_edges
        assert fingerprint(c1.graph) == fingerprint(c2.graph)

    def test_distinguishes_c6_from_k33(self):
        c6 = cycle_graph(6)
        k33 = MultiGraph(6, [[a, b] for a in range(3) for b in range(3, 6)])
        assert fingerprint(c6) != fingerprint(k33)

    def test_relabeling_invariance(self, petersen):
        rng = random.Random(5)
        perm = list(range(10))
        rng.shuffle(perm)
        edges = [[perm[int(t)], perm[int(h)]]
                 for t, h in zip(petersen.tails, petersen.heads)]
        rng.shuffle(edges)
        relabeled = MultiGraph(10, edges)
        assert fingerprint(relabeled) == fingerprint(petersen)

    def test_detects_different_girth(self):
        assert fingerprint(cycle_graph(6)) != fingerprint(cycle_graph(7))
