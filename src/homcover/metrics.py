"""The graph metric d and the quotient metric d_Q on covers.

The production formula for d_Q is the collapsed edge sum
sum_e min(phi_e, m - phi_e): the tree-weighted double sum telescopes to
one per edge whenever the base is bridgeless.  The tree-average form
(1/N) sum_T d_T is kept as an exact cross-check and requires the
per-edge tree-avoidance count N_e to be constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceeded, LengthMismatch, NonConstantNe
from .graph import bfs_distance_matrix, girth
from .cover import CoverGraph, cloud_map
from .trees import (DEFAULT_TREE_CAP, enumerate_spanning_trees,
                    sample_uniform_tree)


def d_T_distance(a, b, m: int) -> int:
    """Word metric on Z_m^r with one generator per factor."""
    if len(a) != len(b):
        raise LengthMismatch("labels have different lengths")
    total = 0
    for x, y in zip(a, b):
        z = (int(x) - int(y)) % m
        total += min(z, m - z)
    return total


def d_q(c: CoverGraph, x: int, y: int) -> int:
    """Quotient metric between two cover vertices."""
    prof = c.base_profiles()
    n = c.graph.vertex_count
    if not 0 <= x < n or not 0 <= y < n:
        raise IndexError("cover vertex out of range")
    return int(_cyclic_distance(prof[x], prof[y], c.m).sum(dtype=np.int64))


def d_q_from(c: CoverGraph, x: int) -> np.ndarray:
    """d_Q from x to every cover vertex, as one vectorised row."""
    prof = c.base_profiles()
    # einsum's row sum is about twice as fast as sum(axis=1) on these
    # short |E(X)|-long rows
    return np.einsum("ij->i", _cyclic_distance(prof, prof[x], c.m),
                     dtype=np.int64)


def _cyclic_distance(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """min(z, m - z) for z = |a - b|, elementwise over residues mod m.

    Stays in the unsigned residue dtype: m - z is taken as (m - 1 - z) + 1,
    where m - 1 always fits.  At m = 2**bits the + 1 wraps z = 0 to 0,
    which is min(0, m) anyway.
    """
    z = np.maximum(a, b)
    z -= np.minimum(a, b)
    np.minimum(z, (m - 1) - z + 1, out=z)
    return z


@dataclass(frozen=True)
class TreeAverage:
    value: Fraction
    trees_used: int
    sampled: bool


def d_q_tree_average(c: CoverGraph, x: int, y: int,
                     cap: int = DEFAULT_TREE_CAP,
                     sample: Optional[int] = None,
                     seed: int = 0) -> TreeAverage:
    """(1/N) sum over maximal spanning trees of the cloud distance d_T.

    Exact rational over a full enumeration when tau(base) <= cap;
    with `sample` set, a seeded uniform-tree sample is used instead and
    the (tau/N)-scaled sample mean is returned.
    """
    counts = c.tree_counts()
    if not counts.constant or counts.common in (None, 0):
        raise NonConstantNe("tree average requires constant nonzero N_e")
    n_avoid = counts.common
    if sample is None:
        if counts.total > cap:
            raise CapExceeded(f"tau = {counts.total} exceeds cap {cap}")
        total = 0
        used = 0
        for tree in enumerate_spanning_trees(c.base, cap):
            labels = cloud_map(c, tree)
            total += d_T_distance(labels[x], labels[y], c.m)
            used += 1
        return TreeAverage(Fraction(total, n_avoid), used, False)
    total = 0
    for i in range(sample):
        tree = sample_uniform_tree(c.base, seed + i)
        labels = cloud_map(c, tree)
        total += d_T_distance(labels[x], labels[y], c.m)
    value = Fraction(counts.total * total, n_avoid * sample)
    return TreeAverage(value, sample, True)


def tree_average_numerators(c: CoverGraph,
                            cap: int = DEFAULT_TREE_CAP) -> tuple[np.ndarray, int]:
    """All-pairs sum over trees of d_T, plus the constant N.

    Returns (S, N) with S[x, y] = sum_T d_T(C^T_x, C^T_y); the exact tree
    average for a pair is S[x, y] / N.  Intended for small covers.
    """
    counts = c.tree_counts()
    if not counts.constant or counts.common in (None, 0):
        raise NonConstantNe("tree average requires constant nonzero N_e")
    n = c.graph.vertex_count
    total = np.zeros((n, n), dtype=np.int64)
    m = c.m
    for tree in enumerate_spanning_trees(c.base, cap):
        lab = cloud_map(c, tree)
        total += _cyclic_distance(lab[:, None, :], lab[None, :, :],
                                  m).sum(axis=2, dtype=np.int64)
    return total, counts.common


# -- comparison against the graph metric ----------------------------------


@dataclass
class CompareReport:
    """Outcome of checking the girth comparison between d and d_Q.

    Violations are data, not exceptions; all three counts must be zero
    for the cover to verify.  `girth_base` is math.inf for a base with no
    cycle, where every pair is below the girth and d_Q must equal d.
    """

    girth_base: int | float
    pairs_checked: int = 0
    iff_violations: int = 0
    equality_violations: int = 0
    monotone_violations: int = 0  # pairs with d_Q > d
    details: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (self.iff_violations == 0 and self.equality_violations == 0
                and self.monotone_violations == 0)


def _default_sources(c: CoverGraph, sources) -> list[int]:
    if sources is None:
        return list(range(c.graph.vertex_count))
    return list(sources)


#: Fiber representatives whose BFS rows are held at once.
_ROW_CHUNK = 32


def _fibers(c: CoverGraph, srcs: list[int]):
    """Per distinct fiber of the whole source list, yield (representative
    (v, 0), its BFS row, label ranks of its sources, repeats kept).  Deck
    translations keep d and d_Q, so (v, k) has the representative's rows
    gathered through c.deck_permutation(k).
    """
    fibers = {}
    for s in srcs:
        fibers.setdefault(s - s % c.deck_size, []).append(s % c.deck_size)
    groups = list(fibers.items())
    for lo in range(0, len(groups), _ROW_CHUNK):
        chunk = groups[lo:lo + _ROW_CHUNK]
        dmat = bfs_distance_matrix(c.graph, [rep for rep, _ in chunk])
        for (rep, ranks), d_row in zip(chunk, dmat):
            yield rep, d_row, ranks


def _compare_row(c: CoverGraph, x: int, d_row: np.ndarray, g0, perturb: int):
    """d_Q row from x (perturbed off x) and verify_compare's three masks."""
    dq_row = d_q_from(c, x)
    if perturb:
        dq_row = dq_row + np.where(np.arange(len(dq_row)) != x, perturb, 0)
    below = d_row < g0
    return dq_row, (dq_row > d_row, (dq_row < g0) != below,
                    below & (dq_row != d_row))


def verify_compare(c: CoverGraph, sources: Sequence[int] | None = None,
                   max_details: int = 10, _dq_perturb: int = 0) -> CompareReport:
    """Check, over (source, all-target) pairs, that d_Q <= d, that
    d_Q < girth iff d < girth, and that below the girth the metrics agree.

    Counts come from each distinct fiber's rows, weighed by its source
    count; details from the own rows of the first violating sources.

    `_dq_perturb` is a fault-injection hook for harness self-tests only.
    """
    g0 = girth(c.base)
    report = CompareReport(girth_base=g0)
    srcs = _default_sources(c, sources)
    bad_fibers = set()
    for rep, d_row, ranks in _fibers(c, srcs):
        mono, iff, eq = _compare_row(c, rep, d_row, g0, _dq_perturb)[1]
        w = len(ranks)
        report.pairs_checked += w * len(d_row)
        report.monotone_violations += w * int(mono.sum())
        report.iff_violations += w * int(iff.sum())
        report.equality_violations += w * int(eq.sum())
        if (mono | iff | eq).any():
            bad_fibers.add(rep)
    for s in srcs if bad_fibers else ():
        room = max_details - len(report.details)
        if room <= 0:
            break
        if s - s % c.deck_size in bad_fibers:
            d_row = bfs_distance_matrix(c.graph, [s])[0]
            dq_row, masks = _compare_row(c, s, d_row, g0, _dq_perturb)
            for t in np.flatnonzero(np.logical_or.reduce(masks))[:room]:
                report.details.append(
                    {"source": int(s), "target": int(t),
                     "d": int(d_row[t]), "d_q": int(dq_row[t])})
    return report


# -- compression profiles --------------------------------------------------


@dataclass(frozen=True)
class ProfileRow:
    t: int
    pair_count: int
    min_val: Fraction
    max_val: Fraction


@dataclass(frozen=True)
class CompressionProfile:
    mode: str
    rows: tuple[ProfileRow, ...]

    def row(self, t: int) -> Optional[ProfileRow]:
        for r in self.rows:
            if r.t == t:
                return r
        return None


def compression_profile(c: CoverGraph, sources: Sequence[int] | None = None,
                        mode: str = "dq") -> CompressionProfile:
    """Per graph distance t, the min/max of the compared quantity over
    pairs at d = t.

    mode "dq" compares d_Q; mode "l2" compares the squared Euclidean
    distance of the binary embedding images (kept squared so the profile
    stays in exact integers).

    Mode "dq" weighs each distinct fiber's (d, d_Q) row by its source
    count; mode "l2" translates the d row to each source and computes that
    source's Hamming row, since that row is what it tests.
    """
    if mode not in ("dq", "l2"):
        raise ValueError(f"unknown mode {mode!r}")
    srcs = _default_sources(c, sources)
    diam_bound = c.graph.vertex_count + 1
    mins = np.full(diam_bound, np.iinfo(np.int64).max, dtype=np.int64)
    maxs = np.full(diam_bound, -1, dtype=np.int64)
    counts = np.zeros(diam_bound, dtype=np.int64)
    if mode == "l2":
        from .embed import binary_embed_matrix
        binary = binary_embed_matrix(c)
    for rep, d_row, ranks in _fibers(c, srcs):
        if mode == "dq":
            _reduce_row(counts, mins, maxs, d_row, d_q_from(c, rep), len(ranks))
            continue
        for k in ranks:
            d_k = d_row.reshape(-1, c.deck_size)[:, c.deck_permutation(k)]
            # squared Euclidean distance of 0/1 vectors = Hamming
            val = (binary != binary[rep + k]).sum(axis=1, dtype=np.int64)
            _reduce_row(counts, mins, maxs, d_k.ravel(), val, 1)
    rows = tuple(ProfileRow(int(t), int(counts[t]),
                            Fraction(int(mins[t])), Fraction(int(maxs[t])))
                 for t in np.flatnonzero(counts))
    return CompressionProfile("dQ_vs_d" if mode == "dq" else "l2_vs_d", rows)


def _reduce_row(counts, mins, maxs, d_row, val, weight):
    """Fold `weight` sources with this (d, value) row into the profile."""
    counts += weight * np.bincount(d_row, minlength=counts.size)
    np.minimum.at(mins, d_row, val)
    np.maximum.at(maxs, d_row, val)
