"""The graph metric d and the quotient metric d_Q on covers.

The production formula for d_Q is the collapsed edge sum
sum_e min(phi_e, m - phi_e): the tree-weighted double sum telescopes to
one per edge whenever the base is bridgeless.  The tree average
(1/N) sum_T d_T, an exact cross-check, is the weighted edge sum
sum_e w_e min(z_e, m - z_e): z_e is the residue difference on base edge
e and w_e counts the given trees that leave e out.  Over all trees w_e
is the matrix-tree N_e, which every edge, loops included, must share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import (CapExceeded, InvalidParameter, LengthMismatch,
                     NonConstantNe)
from .graph import bfs_distance_matrix, girth
from .cover import CoverGraph
from .trees import DEFAULT_TREE_CAP, _sampled_cotrees


def d_T_distance(a, b, m: int) -> int:
    """Word metric on Z_m^r with one generator per factor."""
    if len(a) != len(b):
        raise LengthMismatch("labels have different lengths")
    a, b = (np.asarray(v, dtype=np.int64) % m for v in (a, b))
    return int(_cyclic_distance(a, b, m).sum())


def d_q(c: CoverGraph, x: int, y: int) -> int:
    """Quotient metric between two cover vertices, from their profile rows
    (`CoverGraph.profile_row`)."""
    c.require_vertices(x, y)
    return int(_cyclic_distance(c.profile_row(x), c.profile_row(y),
                                c.m).sum(dtype=np.int64))


#: Entries of the d_Q row that d_q_from computes per slice of deck ranks,
#: across all fibers.
_ROW_SLICE = 1 << 16


def d_q_from(c: CoverGraph, x: int) -> np.ndarray:
    """d_Q from x to every cover vertex, as one int64 row.

    Read from the two factors of the traversal profiles, never the whole
    table: with ref = prof[x] (`CoverGraph.profile_row`), P0 the deck part
    (`CoverGraph.deck_profiles`) and cyc(z) = min(z, m - z) mod m,
    * rank k of the fiber over the root is sum_e cyc(P0[k, e] - ref_e);
    * the fiber over v differs from its tree parent's only on v's tree
      edge e, crossed with step s (`CoverGraph.tree_steps`), which lies
      on no path above v: its row is the parent's plus
      cyc(P0[:, e] - ref_e + s) - cyc(P0[:, e] - ref_e);
    and these per-fiber deltas are summed down the tree (`_down_tree`).
    One slice of about _ROW_SLICE entries across all fibers at a time,
    each written into the row in place; the temporaries are a few
    slices.
    """
    c.require_vertices(x)
    m, deck, nv = c.m, c.deck_size, c.base.vertex_count
    deck_part, tree = c.deck_profiles(), c.tree_steps()
    ref = c.profile_row(x)
    edge, step = tree.edge[1:], tree.step[1:]  # the fibers below the root
    # the delta is D(s * (P0 - ref_e) mod m), D(w) = cyc(w + 1) - cyc(w),
    # read as deltas[s * P0 + shift] with shift in m..2m-1, so that the
    # index stays in the three periods of the table
    w = np.arange(3 * m) % m
    up = (w + 1) % m
    deltas = np.minimum(up, m - up) - np.minimum(w, m - w)
    shift = (-step * ref[edge]) % m + m
    out = np.empty(nv * deck, dtype=np.int64)
    rows = out.reshape(nv, deck)
    width = max(1, _ROW_SLICE // nv)
    for lo in range(0, deck, width):
        block = deck_part[lo:lo + width]
        acc = rows[:, lo:lo + width]
        # einsum's row sum is about twice as fast as sum(axis=1) on these
        # short |E(X)|-long rows
        np.einsum("ij->i", _cyclic_distance(block, ref, m), dtype=np.int64,
                  out=acc[0])
        at = block.T[edge].astype(np.intp)
        at *= step[:, None]
        at += shift[:, None]
        acc[1:] = deltas[at]
        del at  # before the tree sums, which gather slices of their own
        _down_tree(acc, tree.parent)
    return out


def _down_tree(acc: np.ndarray, parent: np.ndarray) -> None:
    """Sum the rows of acc down a rooted tree in place: afterwards acc[v]
    is the sum of the old rows of v and of all its ancestors.

    parent[v] is v's parent, -1 at the root.  Pointer doubling: each
    pass adds to every unfinished row the partial sum of its current
    ancestor pointer, then doubles the pointer, so ceil(log2(depth + 1))
    passes finish the deepest vertex, also on path-shaped trees.  A pass
    reads every row it adds (a gather) before it writes any.
    """
    up = parent.copy()
    live = np.flatnonzero(up >= 0)
    while live.size:
        above = up[live]
        acc[live] += acc[above]
        up[live] = up[above]
        live = live[up[live] >= 0]


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


def avoidance_count(c: CoverGraph) -> int:
    """The N_e that every base edge shares, or NonConstantNe.  A loop lies
    in no tree, so its N_e is tau, and it counts like any edge."""
    avoiding = set(c.tree_counts().avoiding)
    if len(avoiding) != 1 or 0 in avoiding:
        raise NonConstantNe("tree average requires constant nonzero N_e")
    return avoiding.pop()


def _avoidance_weights(c: CoverGraph, cotrees) -> tuple[np.ndarray, int]:
    """(w, count): int64 w[e] counts the `cotrees` that hold base edge e,
    that is the trees that leave it out, streamed into a Python list;
    count counts the trees."""
    w = [0] * c.base.edge_count
    count = 0
    for count, cotree in enumerate(cotrees, 1):
        for e in cotree:
            w[e] += 1
    return np.array(w, dtype=np.int64), count


def _all_tree_weights(c: CoverGraph, cap: int) -> tuple[np.ndarray, int]:
    """(w, tau): int64 w[e] = N_e of the tau trees; CapExceeded if tau > cap."""
    counts = c.tree_counts()
    if counts.total > cap:
        raise CapExceeded(f"tau = {counts.total} exceeds cap {cap}")
    return np.array(counts.avoiding, dtype=np.int64), counts.total


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

    Exact rational over all trees, read from their N_e, when
    tau(base) <= cap; with `sample` set, a seeded uniform-tree sample is
    used instead and the (tau/N)-scaled sample mean is returned.
    """
    c.require_vertices(x, y)
    if sample is not None and sample < 1:
        raise InvalidParameter(f"sample must be at least 1, got {sample}")
    n_avoid = avoidance_count(c)
    w, used = (_all_tree_weights(c, cap) if sample is None else
               _avoidance_weights(c, _sampled_cotrees(
                   c.base, range(seed, seed + sample))))
    cyc = _cyclic_distance(c.profile_row(x), c.profile_row(y), c.m)
    value = Fraction(c.tree_counts().total * int(cyc @ w), n_avoid * used)
    return TreeAverage(value, used, sample is not None)


#: Entries of the row block that tree_average_numerators adds per edge.
_NUMERATOR_BLOCK = 1 << 18


def tree_average_numerators(c: CoverGraph,
                            cap: int = DEFAULT_TREE_CAP) -> tuple[np.ndarray, int]:
    """All-pairs sum over trees of d_T, plus the constant N.

    Returns (S, N) with S[x, y] = sum_T d_T(C^T_x, C^T_y); the exact tree
    average for a pair is S[x, y] / N.  Summed into S one block of rows
    and one base edge at a time, so beside the (|V~|, |V~|) result the
    temporaries are about _NUMERATOR_BLOCK entries; intended for small
    covers.
    """
    n_avoid = avoidance_count(c)
    w, _ = _all_tree_weights(c, cap)
    prof = c.base_profiles()
    n = len(prof)
    total = np.zeros((n, n), dtype=np.int64)
    rows = max(1, _NUMERATOR_BLOCK // max(n, 1))
    for lo in range(0, n, rows):
        block = total[lo:lo + rows]
        for e, col in enumerate(prof.T):
            # w[e] is an int64 scalar, so the product is int64, not the
            # residue dtype
            block += w[e] * _cyclic_distance(col[lo:lo + rows, None],
                                             col[None, :], c.m)
    return total, n_avoid


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


def _source_array(c: CoverGraph, sources) -> np.ndarray:
    """The sources as int64 (every vertex when None); IndexError if one
    is out of range."""
    n = c.graph.vertex_count
    if sources is None:
        return np.arange(n, dtype=np.int64)
    srcs = np.asarray(list(sources), dtype=np.int64).reshape(-1)
    if srcs.size and (srcs.min() < 0 or srcs.max() >= n):
        bad = srcs[(srcs < 0) | (srcs >= n)][0]
        raise IndexError(f"source {bad} out of range")
    return srcs


def _rep_rows(c: CoverGraph, srcs: np.ndarray, reps: np.ndarray):
    """Per distinct representative in `reps` (one per source), yield
    (representative, its BFS row, its sources in list order, repeats
    kept).  Grouped in numpy, once for the whole source list; each row is
    computed as it is yielded, so one is held at a time."""
    order = np.argsort(reps, kind="stable")
    ranked = reps[order]
    starts = np.flatnonzero(np.diff(ranked, prepend=-1))
    members = np.split(srcs[order], starts[1:])
    for rep, group in zip(ranked[starts].tolist(), members):
        yield rep, bfs_distance_matrix(c.graph, [rep])[0], group


def _orbit_of(c: CoverGraph, srcs: np.ndarray) -> np.ndarray:
    """Each source's orbit representative (`CoverGraph.orbit_reps`): its
    rows hold the source's (d, d_Q) pairs, so weight-only reductions read
    one BFS and one d_Q row per orbit."""
    return c.orbit_reps()[srcs // c.deck_size]


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

    Counts come from each distinct orbit's rows, weighed by its source
    count; details from the own rows of the first violating sources.

    `_dq_perturb` is a fault-injection hook for harness self-tests only.
    """
    g0 = girth(c.base)
    report = CompareReport(girth_base=g0)
    srcs = _source_array(c, sources)
    reps = _orbit_of(c, srcs)
    bad_reps = []
    for rep, d_row, members in _rep_rows(c, srcs, reps):
        mono, iff, eq = _compare_row(c, rep, d_row, g0, _dq_perturb)[1]
        w = len(members)
        report.pairs_checked += w * len(d_row)
        report.monotone_violations += w * int(mono.sum())
        report.iff_violations += w * int(iff.sum())
        report.equality_violations += w * int(eq.sum())
        if (mono | iff | eq).any():
            bad_reps.append(rep)
    for s in srcs[np.isin(reps, bad_reps)].tolist() if bad_reps else ():
        room = max_details - len(report.details)
        if room <= 0:
            break
        d_row = bfs_distance_matrix(c.graph, [s])[0]
        dq_row, masks = _compare_row(c, s, d_row, g0, _dq_perturb)
        for t in np.flatnonzero(np.logical_or.reduce(masks))[:room]:
            report.details.append(
                {"source": s, "target": int(t),
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

    Mode "dq" weighs each distinct orbit's (d, d_Q) row by its source
    count; mode "l2" translates its fiber's d row to each source and
    computes that source's Hamming row, since that row is what it tests:
    XOR and popcount over the rows of `embed.packed_embed_matrix`.  The
    per-distance counts, minima and maxima are int64 arrays as long as
    the largest distance seen plus one, grown as rows arrive.
    """
    if mode not in ("dq", "l2"):
        raise InvalidParameter(f"unknown mode {mode!r}")
    srcs = _source_array(c, sources)
    sums = (np.zeros(0, dtype=np.int64),) * 3
    if mode == "dq":
        for rep, d_row, members in _rep_rows(c, srcs, _orbit_of(c, srcs)):
            sums = _reduce_row(sums, d_row, d_q_from(c, rep), len(members))
    else:
        from .embed import hamming_row, packed_embed_matrix
        packed = packed_embed_matrix(c)
        fibers = srcs - srcs % c.deck_size
        for rep, d_row, members in _rep_rows(c, srcs, fibers):
            for s in members.tolist():
                d_s = d_row.reshape(-1, c.deck_size)[
                    :, c.deck_permutation(s - rep)]
                # squared Euclidean distance of 0/1 vectors = Hamming
                val = hamming_row(packed, s)
                sums = _reduce_row(sums, d_s.ravel(), val, 1)
    counts, mins, maxs = sums
    rows = tuple(ProfileRow(int(t), int(counts[t]),
                            Fraction(int(mins[t])), Fraction(int(maxs[t])))
                 for t in np.flatnonzero(counts))
    return CompressionProfile("dQ_vs_d" if mode == "dq" else "l2_vs_d", rows)


#: What a distance no pair has reached holds in (counts, mins, maxs).
_EMPTY_SUMS = (0, np.iinfo(np.int64).max, -1)


def _reduce_row(sums, d_row, val, weight):
    """Fold `weight` sources with this (d, value) row into the profile
    sums (counts, mins, maxs), first padded to d_row.max() + 1; returns
    the sums."""
    size = int(d_row.max()) + 1
    if size > sums[0].size:
        sums = tuple(np.pad(a, (0, size - a.size), constant_values=fill)
                     for a, fill in zip(sums, _EMPTY_SUMS))
    counts, mins, maxs = sums
    counts[:size] += weight * np.bincount(d_row)
    np.minimum.at(mins, d_row, val)
    np.maximum.at(maxs, d_row, val)
    return sums
