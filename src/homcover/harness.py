"""Verification suites over covers, with seeded sampling and reports.

Every check reports violation counts instead of raising: a falsified
invariant is data.  Reports are deterministic for a fixed seed and
independent of the worker count.  The `fault` field of SuiteConfig
injects a deliberate error into the named check so the suite's own
sensitivity can be tested.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cover import (CoverGraph, build_zm_cover, cover_girth, is_m_congruent,
                    lift_path)
from .embed import binary_embed_matrix
from .errors import CapExceeded, HomcoverError, ParseError
from .graph import (DEFAULT_SIZE_CAP, MultiGraph, Walk, bfs_distance_matrix,
                    girth, named_graph, reverse_walk)
from .metrics import d_q_from, tree_average_numerators, verify_compare
from .trees import DEFAULT_TREE_CAP, SpanningTree

DEFAULT_CHECKS = ("compare", "conglifts", "isometry", "treeavg", "l2",
                  "girth_growth", "ne_constant")
DEFAULT_GRAPHS = ("doubled_edge", "k4", "c5", "petersen")

#: Covers above this size are sampled instead of checked exhaustively.
SAMPLE_THRESHOLD = 2_000

#: Note of the checks that need a cycle in the base: the only connected,
#: bridgeless base with r = 0 is the one vertex with no edges.
_ACYCLIC_NOTE = "skipped: base has no cycle"


@dataclass(frozen=True)
class SuiteConfig:
    graphs: tuple[str, ...] = DEFAULT_GRAPHS
    m: int = 3
    seed: int = 7
    samples: int = 100
    size_cap: int = DEFAULT_SIZE_CAP
    tree_cap: int = DEFAULT_TREE_CAP
    checks: tuple[str, ...] = DEFAULT_CHECKS
    threads: int = 1
    fault: Optional[str] = None  # self-test hook: name of a check to poison


@dataclass
class CheckRecord:
    check: str
    instance: str
    trials: int
    violations: int
    details: list = field(default_factory=list)
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass
class VerificationReport:
    config: SuiteConfig
    records: list[CheckRecord]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> str:
        # threads deliberately excluded: reports are worker-count invariant
        cfg = {
            "graphs": list(self.config.graphs),
            "m": self.config.m,
            "seed": self.config.seed,
            "samples": self.config.samples,
            "size_cap": self.config.size_cap,
            "tree_cap": self.config.tree_cap,
            "checks": list(self.config.checks),
            "fault": self.config.fault,
        }
        body = {
            "config": cfg,
            "checks": [
                {"check": r.check, "instance": r.instance, "trials": r.trials,
                 "violations": r.violations, "details": r.details[:10],
                 "note": r.note}
                for r in self.records
            ],
            "overall": "pass" if self.passed else "fail",
        }
        return json.dumps(body, indent=2, sort_keys=True) + "\n"

    def summary(self) -> str:
        lines = [f"{r.check}[{r.instance}]: "
                 f"{'ok' if r.passed else 'FAIL'} "
                 f"({r.trials} trials, {r.violations} violations)"
                 + (f" [{r.note}]" if r.note else "")
                 for r in self.records]
        lines.append(f"overall: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines)


def _derive_seed(seed: int, *tags: str) -> int:
    h = hashlib.sha256(("|".join([str(seed), *tags])).encode()).digest()
    return int.from_bytes(h[:8], "big")


# -- congruent walk generation -------------------------------------------


def random_walk(g: MultiGraph, rng: random.Random, start: int,
                length: int) -> Walk:
    steps = []
    cur = start
    for _ in range(length):
        arcs = g.adjacency_of(cur)
        e, d, nbr = arcs[rng.randrange(len(arcs))]
        steps.append((e, d))
        cur = nbr
    return Walk(start, tuple(steps))


def _generator_loop(g: MultiGraph, tree: SpanningTree, i: int) -> Walk:
    """Closed walk at the root crossing cotree edge i exactly once."""
    e = tree.cotree[i]
    t, h = g.endpoints(e)
    down = reverse_walk(g, tree.walk_to_root(g, t))          # root -> tail
    up = tree.walk_to_root(g, h)                             # head -> root
    return Walk(down.start, down.steps + ((e, 1),) + up.steps)


def make_congruence_pair(g: MultiGraph, tree: SpanningTree, m: int,
                         rng: random.Random,
                         congruent: bool) -> tuple[Walk, Walk]:
    """A pair of equal-endpoint walks, m-congruent or provably not.

    The second walk inserts, at a random point of the first, a detour to
    the root followed by a cotree generator loop traversed m times (for a
    congruent pair) or once (for a non-congruent pair: the loop's own
    cotree coordinate shifts by 1 mod m).
    """
    a = rng.randrange(g.vertex_count)
    w1 = random_walk(g, rng, a, rng.randrange(0, 8))
    verts = w1.vertices(g)
    pos = rng.randrange(len(verts))
    v = verts[pos]
    up = tree.walk_to_root(g, v)
    down = reverse_walk(g, up)
    loop = _generator_loop(g, tree, rng.randrange(len(tree.cotree)))
    reps = m if congruent else 1
    insertion = up.steps + loop.steps * reps + down.steps
    if congruent and rng.random() < 0.5:
        # also splice in an immediate backtrack for variety
        arcs = g.adjacency_of(v)
        e, d, _ = arcs[rng.randrange(len(arcs))]
        insertion = ((e, d), (e, -d)) + insertion
    w2 = Walk(a, w1.steps[:pos] + insertion + w1.steps[pos:])
    return w1, w2


# -- individual checks -----------------------------------------------------


def _sources_for(c: CoverGraph, samples: int, seed: int) -> list[int] | None:
    n = c.graph.vertex_count
    if n <= SAMPLE_THRESHOLD:
        return None  # exhaustive
    rng = random.Random(seed)
    return sorted(rng.sample(range(n), min(samples, n)))


def check_compare(c: CoverGraph, instance: str, samples: int, seed: int,
                  fault: bool = False) -> CheckRecord:
    sources = _sources_for(c, samples, seed)
    rep = verify_compare(c, sources, _dq_perturb=1 if fault else 0)
    violations = (rep.iff_violations + rep.equality_violations
                  + rep.monotone_violations)
    return CheckRecord("compare", instance, rep.pairs_checked, violations,
                       rep.details)


def check_conglifts(c: CoverGraph, instance: str, trials: int, seed: int,
                    fault: bool = False) -> CheckRecord:
    if c.r == 0:
        return CheckRecord("conglifts", instance, 0, 0, note=_ACYCLIC_NOTE)
    rng = random.Random(seed)
    g = c.base
    tree = c.tree0
    violations = 0
    details = []
    distinct_noncongruent = 0
    for k in range(trials):
        # under fault injection, mislabel a non-congruent pair as congruent
        w1, w2 = make_congruence_pair(g, tree, c.m, rng,
                                      congruent=not (fault and k == 0))
        start = c.encode_vertex(w1.start,
                                [rng.randrange(c.m) for _ in range(c.r)])
        e1, _ = lift_path(c, w1, start)
        e2, _ = lift_path(c, w2, start)
        if e1 != e2:
            violations += 1
            if len(details) < 10:
                details.append({"trial": k, "end1": e1, "end2": e2})
    for k in range(trials):
        w1, w2 = make_congruence_pair(g, tree, c.m, rng, congruent=False)
        if is_m_congruent(g, w1, w2, c.m):
            violations += 1
            continue
        start = c.encode_vertex(w1.start,
                                [rng.randrange(c.m) for _ in range(c.r)])
        if lift_path(c, w1, start)[0] != lift_path(c, w2, start)[0]:
            distinct_noncongruent += 1
    if distinct_noncongruent == 0:
        violations += 1
        details.append({"note": "no non-congruent pair lifted apart"})
    return CheckRecord("conglifts", instance, 2 * trials, violations, details)


def _check_hamming(check: str, c: CoverGraph, instance: str, samples: int,
                   seed: int, fault: bool) -> CheckRecord:
    """Hamming rows of the binary embedding against 2 * d_Q.

    The Hamming distance of two rows is both the doubled l1 distance of
    the cut embedding and the squared l2 distance after l1_to_l2, so the
    isometry and l2 checks share this body.
    """
    sources = _sources_for(c, samples, seed)
    if sources is None:
        sources = range(c.graph.vertex_count)
    binary = binary_embed_matrix(c)
    violations = 0
    trials = 0
    details = []
    for s in sources:
        hamming = (binary != binary[s]).sum(axis=1, dtype=np.int64)
        expected = 2 * d_q_from(c, s)
        if fault:
            hamming = hamming + 1
        bad = np.nonzero(hamming != expected)[0]
        trials += len(hamming)
        violations += len(bad)
        for t in bad[:max(0, 10 - len(details))]:
            details.append({"source": int(s), "target": int(t)})
    return CheckRecord(check, instance, trials, violations, details)


def check_isometry(c: CoverGraph, instance: str, samples: int, seed: int,
                   fault: bool = False) -> CheckRecord:
    return _check_hamming("isometry", c, instance, samples, seed, fault)


def check_l2(c: CoverGraph, instance: str, samples: int, seed: int,
             fault: bool = False) -> CheckRecord:
    return _check_hamming("l2", c, instance, samples, seed, fault)


def check_treeavg(c: CoverGraph, instance: str, tree_cap: int,
                  fault: bool = False) -> CheckRecord:
    if c.graph.vertex_count > SAMPLE_THRESHOLD:
        return CheckRecord("treeavg", instance, 0, 0,
                           note="skipped: cover too large for enumeration")
    try:
        numer, n_avoid = tree_average_numerators(c, tree_cap)
    except (CapExceeded, HomcoverError) as exc:
        return CheckRecord("treeavg", instance, 0, 0, note=f"skipped: {exc}")
    n = c.graph.vertex_count
    dq = np.stack([d_q_from(c, x) for x in range(n)])
    if fault:
        numer = numer + 1
    bad = np.nonzero(numer != n_avoid * dq)
    details = [{"x": int(x), "y": int(y)} for x, y in zip(*bad)][:10]
    return CheckRecord("treeavg", instance, n * n, len(bad[0]), details)


def check_girth_growth(c: CoverGraph, instance: str,
                       fault: bool = False) -> CheckRecord:
    if c.r == 0:
        return CheckRecord("girth_growth", instance, 0, 0, note=_ACYCLIC_NOTE)
    g_base = girth(c.base)
    g_cover = cover_girth(c)
    if fault:
        g_cover = g_base
    ok = g_cover > g_base
    details = [] if ok else [{"girth_base": g_base, "girth_cover": g_cover}]
    return CheckRecord("girth_growth", instance, 1, 0 if ok else 1, details)


def check_ne_constant(c: CoverGraph, instance: str,
                      fault: bool = False) -> CheckRecord:
    constant = c.tree_counts().constant
    if fault:
        constant = not constant
    return CheckRecord("ne_constant", instance, 1, 0 if constant else 1)


# -- suite driver ----------------------------------------------------------


#: Check name -> (check function, builder of the arguments between
#: (cover, instance) and fault from the config and the derived seed).
CHECKS = {
    "compare": (check_compare, lambda cfg, seed: (cfg.samples, seed)),
    "conglifts": (check_conglifts, lambda cfg, seed: (1000, seed)),
    "isometry": (check_isometry, lambda cfg, seed: (cfg.samples, seed)),
    "treeavg": (check_treeavg, lambda cfg, seed: (cfg.tree_cap,)),
    "l2": (check_l2, lambda cfg, seed: (cfg.samples, seed)),
    "girth_growth": (check_girth_growth, lambda cfg, seed: ()),
    "ne_constant": (check_ne_constant, lambda cfg, seed: ()),
}


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    """Execute the configured checks; deterministic given the seed.

    Check tasks run on a thread pool but results are assembled in a fixed
    order, so the report is identical for any thread count.  An unknown
    check name, or a fault that names no configured check, raises
    ParseError before any cover is built.
    """
    for check in cfg.checks:
        if check not in CHECKS:
            raise ParseError(f"unknown check {check!r}; known checks: "
                             f"{', '.join(CHECKS)}")
    if cfg.fault is not None and cfg.fault not in cfg.checks:
        raise ParseError(f"fault {cfg.fault!r} names no configured check; "
                         f"checks: {', '.join(cfg.checks)}")
    covers = {}
    for name in cfg.graphs:
        g = named_graph(name)
        covers[name] = build_zm_cover(g, cfg.m, size_cap=cfg.size_cap)
        # fill the lazy profile cache here, not racing in the worker threads
        covers[name].base_profiles()

    tasks = []
    for name in cfg.graphs:
        c = covers[name]
        for check in cfg.checks:
            fn, extra = CHECKS[check]
            seed = _derive_seed(cfg.seed, name, check)
            tasks.append((fn, (c, name, *extra(cfg, seed), cfg.fault == check)))

    if cfg.threads > 1 and tasks:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            records = list(pool.map(lambda t: t[0](*t[1]), tasks))
    else:
        records = [fn(*args) for fn, args in tasks]
    return VerificationReport(cfg, records)


# -- isomorphism-invariant fingerprint --------------------------------------


def fingerprint(g: MultiGraph):
    """Cheap isomorphism-invariant summary of a graph.

    (|V|, |E|, degree multiset, girth, sorted per-source distance
    histograms) from min(|V|, 64) evenly spaced sources.  With more than
    64 vertices the source choice is a heuristic: strictly
    relabelling-invariant only when all sources see the same histogram
    multiset (e.g. vertex-transitive graphs).
    """
    n = g.vertex_count
    if n <= 64:
        sources = list(range(n))
    else:
        sources = sorted({int(i) for i in np.linspace(0, n - 1, 64)})
    dmat = bfs_distance_matrix(g, sources)
    hists = []
    for row in dmat:
        reach = row[row < n]  # finite distances are < |V|
        hist = tuple(np.bincount(reach).tolist())
        hists.append((hist, int(len(row) - len(reach))))
    degree_multiset = tuple(sorted(g.degrees().tolist()))
    gth = girth(g)
    gth = "inf" if gth is math.inf else int(gth)
    return (n, g.edge_count, degree_multiset, gth, tuple(sorted(hists)))
