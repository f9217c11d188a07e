"""Verification suites over covers, with seeded sampling and reports.

Every check reports violation counts instead of raising: a falsified
invariant is data.  Reports are deterministic for a fixed seed and
independent of the worker count.  The `fault` field of SuiteConfig
injects a deliberate error into the named check so the suite's own
sensitivity can be tested; a fault that gives its check no violation
raises FaultNotInjected instead of passing.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .cover import CoverGraph, _lift_block, build_zm_cover, cover_girth
from .embed import hamming_row, packed_embed_matrix
from .errors import (FaultNotInjected, HomcoverError, InvalidParameter,
                     ParseError)
from .graph import (DEFAULT_SIZE_CAP, MultiGraph, Walk, girth, named_graph,
                    signed_arc_counts)
from .metrics import (_sample_sources, _source_rows, d_q_from,
                      tree_average_numerators, verify_compare)
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
#
# Walks are drawn as lists of signed arcs, the steps of `graph.Walk`: 2e
# traverses base edge e tail -> head and 2e + 1 traverses it head -> tail.


class _WalkTables:
    """Signed-arc tables of a base graph and tree, built once per check:
    the arcs and neighbours of each vertex in adjacency order, the tree
    walk of each vertex up to the root and back, and each cotree
    generator loop at the root."""

    def __init__(self, g: MultiGraph, tree: SpanningTree):
        self.edge_count = g.edge_count
        indptr, edge, sign, head = g.arcs()
        arcs = (2 * edge + (sign < 0)).tolist()
        heads = head.tolist()
        bounds = list(zip(indptr[:-1].tolist(), indptr[1:].tolist()))
        self.arcs = [arcs[lo:hi] for lo, hi in bounds]
        self.nbrs = [heads[lo:hi] for lo, hi in bounds]
        # a vertex's walk up is its tree parent's with one arc in front
        self.up = [[] for _ in range(g.vertex_count)]
        self.down = [[] for _ in range(g.vertex_count)]
        tails = g.tails.tolist()
        for v in tree.depth_order()[1:]:
            p, e = tree.parent[v]
            arc = 2 * e + (v != tails[e])
            self.up[v] = [arc] + self.up[p]
            self.down[v] = self.down[p] + [arc ^ 1]
        self.loops = []
        for e in tree.cotree:
            t, h = g.endpoints(e)
            self.loops.append(self.down[t] + [2 * e] + self.up[h])

    def draw(self, m: int, rng: random.Random, congruent: bool):
        """One pair as (start, steps of w1, splice position, insertion):
        w2 is w1 with the closed insertion spliced in at the position.

        The insertion is a detour to the root, a cotree generator loop
        traversed m times (congruent) or once (not congruent: the loop's
        own cotree coordinate shifts by 1 mod m), and the way back.
        """
        start = cur = rng.randrange(len(self.arcs))
        steps, verts = [], [start]
        for _ in range(rng.randrange(0, 8)):
            j = rng.randrange(len(self.arcs[cur]))
            steps.append(self.arcs[cur][j])
            cur = self.nbrs[cur][j]
            verts.append(cur)
        pos = rng.randrange(len(verts))
        v = verts[pos]
        loop = self.loops[rng.randrange(len(self.loops))]
        insertion = self.up[v] + loop * (m if congruent else 1) + self.down[v]
        if congruent and rng.random() < 0.5:
            # also splice in an immediate backtrack for variety
            arc = self.arcs[v][rng.randrange(len(self.arcs[v]))]
            insertion = [arc, arc ^ 1] + insertion
        return start, steps, pos, insertion

    def closes_mod(self, walks: list[list[int]], m: int) -> np.ndarray:
        """Per walk of signed arcs, True iff its every signed edge count
        is 0 mod m.  Walk i's arcs count on copy i of the edges, so one
        count serves the block."""
        lengths = list(map(len, walks))
        arcs = np.fromiter(chain.from_iterable(walks), np.int64, sum(lengths))
        arcs += np.repeat(np.arange(len(walks)) * (2 * self.edge_count),
                          lengths)
        counts = signed_arc_counts(arcs, len(walks) * self.edge_count)
        return ~(counts.reshape(len(walks), -1) % m).any(axis=1)


def make_congruence_pair(g: MultiGraph, tree: SpanningTree, m: int,
                         rng: random.Random,
                         congruent: bool) -> tuple[Walk, Walk]:
    """A pair of equal-endpoint walks, m-congruent or provably not.

    The second walk inserts, at a random point of the first, a detour to
    the root followed by a cotree generator loop traversed m times (for a
    congruent pair) or once (for a non-congruent pair: the loop's own
    cotree coordinate shifts by 1 mod m).  A base with no cycle has no
    such loop: InvalidParameter.
    """
    if not tree.cotree:
        raise InvalidParameter("base has no cycle: no congruence pair to draw")
    start, steps, pos, insertion = _WalkTables(g, tree).draw(m, rng, congruent)
    return (Walk(start, tuple(steps)),
            Walk(start, tuple(steps[:pos] + insertion + steps[pos:])))


# -- individual checks -----------------------------------------------------


def _sources_for(c: CoverGraph, samples: int, seed: int) -> list[int] | None:
    n = c.graph.vertex_count
    return None if n <= SAMPLE_THRESHOLD else _sample_sources(n, samples, seed)


def check_compare(c: CoverGraph, instance: str, samples: int, seed: int,
                  fault: bool = False) -> CheckRecord:
    sources = _sources_for(c, samples, seed)
    rep = verify_compare(c, sources, _dq_perturb=1 if fault else 0)
    violations = (rep.iff_violations + rep.equality_violations
                  + rep.monotone_violations)
    return CheckRecord("compare", instance, rep.pairs_checked, violations,
                       rep.details)


#: Trials drawn, then lifted at once, by check_conglifts.
_LIFT_BLOCK = 250


def check_conglifts(c: CoverGraph, instance: str, trials: int, seed: int,
                    fault: bool = False) -> CheckRecord:
    """Lift `trials` congruent pairs, which must end together, then
    `trials` non-congruent ones, which differ by one generator loop and
    must end apart.  Under fault injection the first pair is mislabelled.

    Pairs are drawn one at a time and lifted in blocks of _LIFT_BLOCK
    trials over the edge arrays of c.graph, so the check also tests the
    built edges.  A non-congruent pair whose insertion closes mod m is a
    violation, whatever its lift.
    """
    if c.r == 0:
        return CheckRecord("conglifts", instance, 0, 0, note=_ACYCLIC_NOTE)
    rng = random.Random(seed)
    tables = _WalkTables(c.base, c.tree0)
    weights = [c.m ** i for i in range(c.r)]
    violations = 0
    details = []
    for lo in range(0, 2 * trials, _LIFT_BLOCK):
        ks = range(lo, min(lo + _LIFT_BLOCK, 2 * trials))
        starts, walks1, walks2, insertions = [], [], [], []
        for k in ks:
            congruent = k < trials and not (fault and k == 0)
            a, steps, pos, insertion = tables.draw(c.m, rng, congruent)
            starts.append(a * c.deck_size
                          + sum(rng.randrange(c.m) * w for w in weights))
            walks1.append(steps)
            walks2.append(steps[:pos] + insertion + steps[pos:])
            insertions.append(insertion)
        closed = tables.closes_mod(insertions, c.m).tolist()
        ends = _lift_block(c, starts * 2, walks1 + walks2)[0].tolist()
        for k, shut, e1, e2 in zip(ks, closed, ends, ends[len(ks):]):
            if k >= trials and shut:
                violations += 1
            elif (e1 == e2) != (k < trials):
                violations += 1
                if len(details) < 10:
                    details.append({"trial": k, "end1": e1, "end2": e2})
    return CheckRecord("conglifts", instance, 2 * trials, violations, details)


def _check_hamming(check: str, c: CoverGraph, instance: str, samples: int,
                   seed: int, fault: bool) -> CheckRecord:
    """Hamming rows of the binary embedding against 2 * d_Q.

    The Hamming distance of two rows is both the doubled l1 distance of
    the cut embedding and the squared l2 distance after l1_to_l2, so the
    isometry and l2 checks share this body.  Hamming rows are computed
    per source, since they are what the check tests: XOR and popcount
    over the rows of `packed_embed_matrix`, which count the differing
    cut bits and never evaluate the min(z, m - z) formula under test.
    """
    sources = _sources_for(c, samples, seed)
    if sources is None:
        sources = range(c.graph.vertex_count)
    packed = packed_embed_matrix(c)
    violations = 0
    trials = 0
    details = []
    for s, dq_row in _source_rows(c, sources, d_q_from):
        hamming = hamming_row(packed, s)
        if fault:
            hamming = hamming + 1
        bad = np.nonzero(hamming != 2 * dq_row)[0]
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
    except HomcoverError as exc:
        return CheckRecord("treeavg", instance, 0, 0, note=f"skipped: {exc}")
    n = c.graph.vertex_count
    if fault:
        numer += 1
    violations = 0
    details = []
    for x, dq_row in _source_rows(c, range(n), d_q_from):
        bad = np.flatnonzero(numer[x] != n_avoid * dq_row)
        violations += len(bad)
        details.extend({"x": x, "y": int(y)}
                       for y in bad[:max(0, 10 - len(details))])
    return CheckRecord("treeavg", instance, n * n, violations, details)


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
    ParseError before any cover is built.  A fault that leaves every
    record of its check without a violation (say, a check skipped on a
    base with no cycle) raises FaultNotInjected: the self-test showed
    nothing.
    """
    if cfg.threads < 1 or cfg.samples < 0:
        raise InvalidParameter(f"threads must be at least 1 and samples at "
                               f"least 0, got {cfg.threads} and {cfg.samples}")
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
        c = covers[name] = build_zm_cover(g, cfg.m, size_cap=cfg.size_cap)
        # fill the lazy caches here, not racing in the worker threads: the
        # profile table and its two factors, the deck part and the tree
        # steps, which the d_Q rows read, and the tree counts, which
        # ne_constant reads and treeavg too unless it skips the cover
        c.base_profiles()
        if "ne_constant" in cfg.checks:
            c.tree_counts()

    tasks = []
    for name in cfg.graphs:
        c = covers[name]
        for check in cfg.checks:
            fn, extra = CHECKS[check]
            seed = _derive_seed(cfg.seed, name, check)
            tasks.append((fn, (c, name, *extra(cfg, seed), cfg.fault == check)))

    if cfg.threads > 1 and tasks:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            records = list(pool.map(lambda t: t[0](*t[1]), tasks))
    else:
        records = [fn(*args) for fn, args in tasks]
    if cfg.fault is not None and not any(
            r.violations for r in records if r.check == cfg.fault):
        raise FaultNotInjected(f"fault {cfg.fault!r} poisoned nothing: no "
                               f"{cfg.fault} record has a violation")
    return VerificationReport(cfg, records)

