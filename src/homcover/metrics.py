"""The graph metric d and the quotient metric d_Q on covers.

The production formula for d_Q is the collapsed edge sum
sum_e min(phi_e, m - phi_e): the tree-weighted double sum telescopes to
one per edge whenever the base is bridgeless.  The tree-average form
(1/N) sum_T d_T is kept as an exact cross-check and requires the
per-edge tree-avoidance count N_e to be constant.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceeded, LengthMismatch, NonConstantNe
from .graph import bfs_distance_matrix, girth
from .cover import CoverGraph, cloud_map
from .trees import (DEFAULT_TREE_CAP, enumerate_spanning_trees,
                    sample_uniform_tree, tree_counts)

#: Covers at or below this vertex count get exhaustive all-pairs checks.
EXHAUSTIVE_LIMIT = 20_000


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
    counts = tree_counts(c.base)
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
    counts = tree_counts(c.base)
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


#: Sources whose BFS rows are held at once.
_ROW_CHUNK = 32


def _fiber_rows(c: CoverGraph, srcs: list[int], with_dq: bool = True):
    """Yield (source, d row, d_Q row or None) for each source, in order.

    Per chunk of _ROW_CHUNK sources, BFS and d_Q rows are computed once for
    each distinct fiber representative (v, 0); the rows of (v, k) are the
    representative's rows gathered through c.deck_permutation(k).
    """
    deck = c.deck_size
    n_base = c.base.vertex_count
    for lo in range(0, len(srcs), _ROW_CHUNK):
        chunk = srcs[lo:lo + _ROW_CHUNK]
        fibers = list(dict.fromkeys(s // deck for s in chunk))
        reps = [v * deck for v in fibers]
        dmat = bfs_distance_matrix(c.graph, reps)
        dq = [d_q_from(c, x) for x in reps] if with_dq else None
        for s in chunk:
            v, k = divmod(s, deck)
            i = fibers.index(v)
            perm = c.deck_permutation(k)
            d_row = dmat[i].reshape(n_base, deck)[:, perm].ravel()
            dq_row = (dq[i].reshape(n_base, deck)[:, perm].ravel()
                      if with_dq else None)
            yield s, d_row, dq_row


def verify_compare(c: CoverGraph, sources: Sequence[int] | None = None,
                   max_details: int = 10, _dq_perturb: int = 0) -> CompareReport:
    """Check, over (source, all-target) pairs, that d_Q <= d, that
    d_Q < girth iff d < girth, and that below the girth the metrics agree.

    `_dq_perturb` is a fault-injection hook for harness self-tests only.
    """
    g0 = girth(c.base)
    report = CompareReport(girth_base=g0)
    for s, d_row, dq_row in _fiber_rows(c, _default_sources(c, sources)):
        if _dq_perturb:
            dq_row = dq_row + np.where(np.arange(len(dq_row)) != s,
                                       _dq_perturb, 0)
        report.pairs_checked += len(d_row)
        mono = dq_row > d_row
        iff = (dq_row < g0) != (d_row < g0)
        below = d_row < g0
        eq = below & (dq_row != d_row)
        report.monotone_violations += int(mono.sum())
        report.iff_violations += int(iff.sum())
        report.equality_violations += int(eq.sum())
        if len(report.details) < max_details:
            bad = np.nonzero(mono | iff | eq)[0]
            for t in bad[:max_details - len(report.details)]:
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

    In mode "dq" each distinct fiber is reduced once: a deck translation
    permutes a source's d and d_Q rows together, so every source in the
    fiber of v has the (d, d_Q) pair multiset of the representative (v, 0).
    """
    if mode not in ("dq", "l2"):
        raise ValueError(f"unknown mode {mode!r}")
    srcs = _default_sources(c, sources)
    diam_bound = c.graph.vertex_count + 1
    mins = np.full(diam_bound, np.iinfo(np.int64).max, dtype=np.int64)
    maxs = np.full(diam_bound, -1, dtype=np.int64)
    counts = np.zeros(diam_bound, dtype=np.int64)
    if mode == "dq":
        fibers = list(Counter(s // c.deck_size for s in srcs).items())
        for lo in range(0, len(fibers), _ROW_CHUNK):
            chunk = [(v * c.deck_size, weight)
                     for v, weight in fibers[lo:lo + _ROW_CHUNK]]
            dmat = bfs_distance_matrix(c.graph, [x for x, _ in chunk])
            for (x, weight), d_row in zip(chunk, dmat):
                _reduce_row(counts, mins, maxs, d_row, d_q_from(c, x), weight)
    else:
        from .embed import binary_embed_matrix
        binary = binary_embed_matrix(c)
        for s, d_row, _ in _fiber_rows(c, srcs, with_dq=False):
            # squared Euclidean distance of 0/1 vectors = Hamming; taken
            # directly, since this row is what the l2 profile tests
            val = (binary != binary[s]).sum(axis=1, dtype=np.int64)
            _reduce_row(counts, mins, maxs, d_row, val, 1)
    rows = tuple(ProfileRow(int(t), int(counts[t]),
                            Fraction(int(mins[t])), Fraction(int(maxs[t])))
                 for t in range(diam_bound) if counts[t] > 0)
    return CompressionProfile("dQ_vs_d" if mode == "dq" else "l2_vs_d", rows)


def _reduce_row(counts, mins, maxs, d_row, val, weight):
    """Fold `weight` sources with this (d, value) row into the profile."""
    counts += weight * np.bincount(d_row, minlength=counts.size)
    np.minimum.at(mins, d_row, val)
    np.maximum.at(maxs, d_row, val)
