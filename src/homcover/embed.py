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
independent oracles in tests/test_selects.py.

Every vertex image has exactly |E(X)| * floor(m/2) set coordinates, so
the images of a block of vertices are one integer array,
`cut_coordinates(c, rows)`.  `embed_point_l1` is that reader on one row,
and `embed export` streams blocks of rows of it straight to text: the
output bytes are those of the per-vertex construction, and memory holds
one block of rows at a time, not the whole text.

All coordinates are stored doubled, as integers, so every norm is an
exact rational with denominator at most 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

import numpy as np

from .errors import (InvalidParameter, LengthMismatch, NonBinaryCoordinates,
                     SizeCapExceeded)
from .cover import CoverGraph
from .metrics import avoidance_count
from .trees import DEFAULT_TREE_CAP, enumerate_spanning_trees


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


def cut_coordinates(c: CoverGraph, rows) -> np.ndarray:
    """Set coordinates of the cut embedding of the vertices `rows`.

    `rows` is anything that selects rows of `base_profiles()` (a slice,
    an index array).  Every image has exactly |E(X)| * floor(m/2) set
    coordinates, each with doubled value 1, so the result is one int64
    array with a row per selected vertex and |E(X)| * floor(m/2)
    columns, ascending along each row.
    """
    prof = c.base_profiles()[rows]
    n, ne = prof.shape
    bits = _cut_bits(prof, c.m).reshape(n, ne * c.m)
    return np.nonzero(bits)[1].reshape(n, ne * (c.m // 2))


def embed_point_l1(c: CoverGraph, x: int) -> HalfIntVector:
    """Per-base-edge cut embedding of a cover vertex.

    l1 distances between images equal d_Q exactly.  One row of
    `cut_coordinates`, O(|E(X)| * m), with no (m, m) table.
    """
    c.require_vertices(x)
    ne, m = c.base.edge_count, c.m
    coords = cut_coordinates(c, [x])[0].tolist()
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
    constant of the cut embedding is 1).  The cloud labels of every tree
    are the tree's cotree columns of base_profiles, held side by side in
    `labels`, shape (|V~|, tau * r).
    """

    def __init__(self, c: CoverGraph, cap: int = DEFAULT_TREE_CAP):
        self.cover = c
        self.n_avoid = avoidance_count(c)
        self.trees = list(enumerate_spanning_trees(c.base, cap))
        self.r = len(self.trees[0].cotree)
        cols = [e for t in self.trees for e in t.cotree]
        self.labels = c.base_profiles()[:, cols]
        self.dim = len(cols) * c.m
        self.block_layout = tuple(
            (f"tree{ti}_factor{i}", (ti * self.r + i) * c.m, c.m)
            for ti in range(len(self.trees)) for i in range(self.r))

    def vector(self, x: int) -> HalfIntVector:
        self.cover.require_vertices(x)
        # row-major: bit t of block b is coordinate b * m + t, in sorted order
        coords = np.flatnonzero(_cut_bits(self.labels[x], self.cover.m)).tolist()
        return HalfIntVector(tuple((k, 1) for k in coords), self.dim,
                             self.block_layout)

    def matrix(self) -> np.ndarray:
        """Doubled coordinates for all vertices; shape (|V~|, dim)."""
        return _arc_table(self.cover.m)[self.labels].reshape(
            self.labels.shape[0], self.dim)

    def distance(self, x: int, y: int) -> Fraction:
        """(1/N)-weighted l1 distance between psi images: the number of
        differing cut bits of the two label rows, over 2N."""
        self.cover.require_vertices(x, y)
        bx, by = (_cut_bits(self.labels[v], self.cover.m) for v in (x, y))
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
