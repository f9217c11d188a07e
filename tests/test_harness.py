import json
import random

import pytest

from homcover import (MultiGraph, SuiteConfig, build_zm_cover, fingerprint,
                      is_m_congruent, make_congruence_pair, named_graph,
                      run_suite, some_spanning_tree)
from homcover.errors import FaultNotInjected, InvalidParameter, ParseError
from homcover.harness import check_conglifts
from homcover.graph import cycle_graph
from homcover.trees import _tree_from_edge_set


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
    def test_lift_that_ignores_a_generator_fails(self, name):
        # congruent pairs still lift together, so only the non-congruent
        # half sees this: each of its pairs through generator 0 lifts
        # together and is a violation
        c = build_zm_cover(named_graph(name), 3)
        del c._cotree_stride[c.cotree[0]]
        rec = check_conglifts(c, name, 1000, seed=4)
        assert rec.violations >= 50
        assert all(d["trial"] >= 1000 for d in rec.details)


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
