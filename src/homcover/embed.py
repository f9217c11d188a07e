"""Explicit coarse embeddings of covers into l1 and l2.

A residue k in Z_m is embedded by cycle cut metrics: one coordinate per
arc cut of the m-cycle, value 1/2 on the floor(m/2) arcs containing k.
Concatenating one such block per base edge, evaluated on the basepoint
traversal profile, gives a vector Psi with ||Psi(x) - Psi(y)||_1 equal to
d_Q(x, y) exactly.  The tree-averaged embedding psi (one block per
spanning tree and Z_m factor, scaled by 1/N at norm time) is retained as
a cross-check; both are exact isometries for d_Q.

Every cut coordinate -- `cycle_cut_arc`, `embed_point_l1`,
`binary_embed_matrix` and `PsiEmbedding` -- comes from one rule,
`_cut_bits`: bit t of residue k is set iff (k - t) mod m < floor(m/2).
The per-residue and per-edge loop constructions it replaced are kept as
independent oracles in tests/test_selects.py.  The psi coordinates are
the cut coordinates repeated once per (tree, cotree edge), so
`PsiEmbedding.matrix` is a column gather of `binary_embed_matrix`: the m
columns of each cotree edge, tree after tree.

Every vertex image has exactly |E(X)| * floor(m/2) set coordinates.
`embed export` streams them as text.  Edge e's cells in a row depend
only on the row's residue k on e, so each block of rows is joined from
one text piece per (e, k), built by `_cut_bits` for the pairs that
block uses.  The output bytes are those of the per-vertex
construction, and memory holds one block of rows at a time, not the
whole text.

All coordinates are stored doubled, as integers, so every norm is an
exact rational with denominator at most 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .errors import (InvalidParameter, LengthMismatch, NonBinaryCoordinates,
                     SizeCapExceeded)
from .cover import CoverGraph
from .metrics import avoidance_count
from .trees import DEFAULT_TREE_CAP, _cotrees


@dataclass(frozen=True)
class HalfIntVector:
    """Sparse vector with half-integer coordinates, stored doubled.

    entries maps coordinate index to 2x the true value; block_layout
    describes which coordinate ranges belong to which logical block as
    (name, start, length) triples.
    """

    entries: tuple[tuple[int, int], ...]
    dim: int
    block_layout: tuple[tuple[str, int, int], ...] = ()

    @classmethod
    def from_dict(cls, entries: dict, dim: int, block_layout=()) -> "HalfIntVector":
        items = tuple(sorted((int(k), int(v)) for k, v in entries.items() if v))
        return cls(items, dim, tuple(block_layout))

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def l1_norm(self) -> Fraction:
        return Fraction(sum(abs(v) for _, v in self.entries), 2)

    def l1_distance(self, other: "HalfIntVector") -> Fraction:
        if self.dim != other.dim:
            raise LengthMismatch("vectors live in different dimensions")
        a = self.as_dict()
        b = other.as_dict()
        total = 0
        for k in a.keys() | b.keys():
            total += abs(a.get(k, 0) - b.get(k, 0))
        return Fraction(total, 2)


def _cut_bits(residues, m: int) -> np.ndarray:
    """The cut rule: bit t of residue k is set iff (k - t) mod m < floor(m/2).

    Bit t is the arc {t, ..., t + floor(m/2) - 1} of the m-cycle, so the
    set bits of k are the arcs containing k.  The result has the shape of
    `residues` plus a last axis of length m, dtype bool.
    """
    k = np.asarray(residues, dtype=np.int64)
    return (k[..., None] - np.arange(m)) % m < m // 2


def cycle_cut_arc(k: int, m: int) -> list[int]:
    """Coordinates t with k in the arc {t, ..., t + floor(m/2) - 1} mod m."""
    if m < 2:
        raise InvalidParameter("m must be at least 2")
    if not 0 <= k < m:
        raise InvalidParameter(f"residue {k} out of range for m = {m}")
    return np.flatnonzero(_cut_bits(k, m)).tolist()


def cycle_cut_embed(k: int, m: int) -> HalfIntVector:
    """Isometric embedding of the m-cycle into l1 via arc cuts."""
    return HalfIntVector(tuple((t, 1) for t in cycle_cut_arc(k, m)), m,
                         ((f"cut_m{m}", 0, m),))


@cache
def _edge_block_layout(edges: int, m: int) -> tuple[tuple[str, int, int], ...]:
    """One (name, start, width) block per base edge; built once per (|E(X)|, m)."""
    return tuple((f"edge{e}", e * m, m) for e in range(edges))


def embed_point_l1(c: CoverGraph, x: int) -> HalfIntVector:
    """Per-base-edge cut embedding of a cover vertex.

    l1 distances between images equal d_Q exactly.  One `_cut_bits`
    row of x's profile row (`CoverGraph.profile_row`), O(|E(X)| * m),
    with no (m, m) table and no profile table.
    """
    c.require_vertices(x)
    ne, m = c.base.edge_count, c.m
    coords = np.flatnonzero(_cut_bits(c.profile_row(x), m)).tolist()
    return HalfIntVector(tuple((k, 1) for k in coords), ne * m,
                         _edge_block_layout(ne, m))


def _arc_table(m: int) -> np.ndarray:
    """Row k is the doubled cycle cut embedding of residue k; (m, m) uint8."""
    return _cut_bits(np.arange(m), m).astype(np.uint8)


def binary_embed_matrix(c: CoverGraph) -> np.ndarray:
    """Doubled coordinates of embed_point_l1 for every vertex.

    Shape (|V~|, |E(X)| * m), dtype uint8, values in {0, 1}.  Row x
    doubled-l1 distance to row y is 2 * d_Q(x, y); Hamming distance of
    rows equals the squared l2 distance after l1_to_l2.
    """
    prof = c.base_profiles()
    n, ne = prof.shape
    return _arc_table(c.m)[prof].reshape(n, ne * c.m)


#: Bytes of cut bits, one byte a bit, that packed_embed_matrix packs per
#: row block.
_PACK_BLOCK = 1 << 18


def packed_embed_matrix(c: CoverGraph) -> np.ndarray:
    """`binary_embed_matrix` with each row's bits packed into uint64 words.

    Shape (|V~|, ceil(|E(X)| * m / 64)); the last word of a row is padded
    with zero bits, so padding never adds to a Hamming distance.  Packed
    one block of rows at a time from `CoverGraph.base_profiles`, so the
    unpacked bits of about _PACK_BLOCK bytes are all that sits beside the
    result.
    """
    prof = c.base_profiles()
    n, ne = prof.shape
    width = ne * c.m
    table = _arc_table(c.m)
    packed = np.zeros((n, 8 * ((width + 63) // 64)), dtype=np.uint8)
    rows = max(1, _PACK_BLOCK // max(width, 1))
    for lo in range(0, n, rows):
        block = prof[lo:lo + rows]
        bits = table[block].reshape(len(block), width)
        packed[lo:lo + rows, :(width + 7) // 8] = np.packbits(bits, axis=1)
    return packed.view(np.uint64)


def hamming_row(packed: np.ndarray, s: int) -> np.ndarray:
    """Hamming distance from row s of a packed matrix to every row, int64.

    The number of differing cut bits: 2 * d_Q, and the squared l2
    distance of the l1_to_l2 images.
    """
    return np.bitwise_count(packed ^ packed[s]).sum(axis=1, dtype=np.int64)


@dataclass(frozen=True)
class BinaryVector:
    """Image of l1_to_l2: a 0/1 vector in l2, held as its support."""

    support: frozenset[int]
    dim: int

    def squared_distance(self, other: "BinaryVector") -> int:
        if self.dim != other.dim:
            raise LengthMismatch("vectors live in different dimensions")
        return len(self.support ^ other.support)


def l1_to_l2(v: HalfIntVector) -> BinaryVector:
    """Double {0, 1/2}-valued coordinates and reinterpret in l2.

    Then ||F(x) - F(y)||_2^2 = 2 * ||Psi(x) - Psi(y)||_1 exactly.  General
    half-integer vectors are rejected.
    """
    support = set()
    for k, doubled in v.entries:
        if doubled == 1:
            support.add(k)
        elif doubled != 0:
            raise NonBinaryCoordinates(
                f"coordinate {k} has doubled value {doubled}, expected 0 or 1")
    return BinaryVector(frozenset(support), v.dim)


class PsiEmbedding:
    """The tree-averaged embedding: one cut block per (tree, Z_m factor).

    Stored entries are half-integers; the 1/N weight is applied at norm
    evaluation time.  Distances equal d_Q exactly (the bi-Lipschitz
    constant of the cut embedding is 1).  A tree enters psi only through
    its cotree: `trees` holds the cotree tuples in enumeration order and
    `cols` the cotree edges of every tree side by side, so the cloud
    labels of x are profile_row(x)[cols], read per row from the cover's
    factors, and neither the profile table nor a (|V~|, tau * r) label
    table is built for them.
    """

    def __init__(self, c: CoverGraph, cap: int = DEFAULT_TREE_CAP):
        self.cover = c
        self.n_avoid = avoidance_count(c)
        self.trees = tuple(_cotrees(c.base, cap))
        self.r = len(self.trees[0])
        self.cols = np.array([e for t in self.trees for e in t],
                             dtype=np.int64)
        self.dim = self.cols.size * c.m

    @property
    def labels(self) -> np.ndarray:
        """The cloud labels of every vertex and tree, shape (|V~|, tau * r):
        a fresh gather of the cotree columns of base_profiles."""
        return self.cover.base_profiles()[:, self.cols]

    @cached_property
    def block_layout(self) -> tuple[tuple[str, int, int], ...]:
        """One (name, start, m) block per (tree, cotree edge); built on the
        first `vector` call."""
        m = self.cover.m
        return tuple((f"tree{ti}_factor{i}", (ti * self.r + i) * m, m)
                     for ti in range(len(self.trees)) for i in range(self.r))

    def _label_bits(self, x: int) -> np.ndarray:
        """The cut bits of x's cloud labels, shape (tau * r, m)."""
        return _cut_bits(self.cover.profile_row(x)[self.cols], self.cover.m)

    def vector(self, x: int) -> HalfIntVector:
        # row-major: bit t of block b is coordinate b * m + t, in sorted order
        coords = np.flatnonzero(self._label_bits(x)).tolist()
        return HalfIntVector(tuple((k, 1) for k in coords), self.dim,
                             self.block_layout)

    def matrix(self) -> np.ndarray:
        """Doubled coordinates for all vertices; shape (|V~|, dim).

        Block b is the cut block of base edge cols[b], so the matrix is a
        column gather of `binary_embed_matrix`: its m columns per cotree
        edge of each tree, side by side.
        """
        m = self.cover.m
        blocks = (self.cols[:, None] * m + np.arange(m)).ravel()
        return np.take(binary_embed_matrix(self.cover), blocks, axis=1)

    def distance(self, x: int, y: int) -> Fraction:
        """(1/N)-weighted l1 distance between psi images: the number of
        differing cut bits of the two label rows, over 2N."""
        self.cover.require_vertices(x, y)
        bx, by = self._label_bits(x), self._label_bits(y)
        return Fraction(int((bx != by).sum()), 2 * self.n_avoid)


def embed_point_psi(c: CoverGraph, x: int,
                    trees_cap: int = DEFAULT_TREE_CAP) -> HalfIntVector:
    """One-shot psi image of a vertex (builds the tree enumeration)."""
    return PsiEmbedding(c, trees_cap).vector(x)


# -- coarse disjoint union -------------------------------------------------


@dataclass(frozen=True)
class EmbeddedFamily:
    """Coarse disjoint union of covers embedded in one l1 space.

    Each cover gets its own coordinate block plus one shared offset
    coordinate whose per-component values realize inter-component
    distances exceeding both diameters.
    """

    covers: tuple[CoverGraph, ...]
    starts: tuple[int, ...]
    widths: tuple[int, ...]
    offset_coord: int
    offsets: tuple[int, ...]
    spacing: tuple[Fraction, ...]
    diameter_bounds: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.offset_coord + 1

    def vector(self, component: int, x: int) -> HalfIntVector:
        c = self.covers[component]
        local = embed_point_l1(c, x)
        entries = {self.starts[component] + k: v for k, v in local.entries}
        if self.offsets[component]:
            entries[self.offset_coord] = 2 * self.offsets[component]
        layout = tuple((f"c{component}_{name}", self.starts[component] + s, ln)
                       for name, s, ln in local.block_layout)
        layout += (("offset", self.offset_coord, 1),)
        return HalfIntVector.from_dict(entries, self.dim, layout)

    def distance(self, component_x: int, x: int,
                 component_y: int, y: int) -> Fraction:
        return self.vector(component_x, x).l1_distance(
            self.vector(component_y, y))


def assemble_family(covers: Sequence[CoverGraph],
                    size_cap: int = 1 << 26) -> EmbeddedFamily:
    """Embed several covers (same m) as a coarse disjoint union.

    Component n is shifted along the offset coordinate by
    sum_{i<n} (max(diam_i, diam_{i+1}) + i), with diam the certified
    d_Q-diameter bound |E(X)| * floor(m/2); consecutive spacings strictly
    grow, so inter-component distances exceed both diameters.
    """
    covers = tuple(covers)
    if not covers:
        raise InvalidParameter("need at least one cover")
    m = covers[0].m
    if any(c.m != m for c in covers):
        raise InvalidParameter("all covers must share the same m")
    widths = tuple(c.base.edge_count * m for c in covers)
    total = sum(widths) + 1
    if total > size_cap:
        raise SizeCapExceeded(f"family dimension {total} exceeds cap {size_cap}")
    starts = []
    acc = 0
    for w in widths:
        starts.append(acc)
        acc += w
    diam = tuple(c.base.edge_count * (m // 2) for c in covers)
    offsets = [0]
    spacing = []
    for i in range(1, len(covers)):
        step = max(diam[i - 1], diam[i]) + i
        offsets.append(offsets[-1] + step)
        spacing.append(Fraction(step))
    return EmbeddedFamily(covers, tuple(starts), widths, acc,
                          tuple(offsets), tuple(spacing), diam)
