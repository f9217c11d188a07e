"""Box-space towers of free groups via iterated Z_m-homology covers.

Level 1 is the Cayley graph of Z_m^n (the first derived-m quotient of the
free group F_n); every later level is the Z_m-homology cover of the
previous one.  The subgroups themselves are never represented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cover import CoverGraph, build_zm_cover, cover_girth
from .errors import InvalidParameter, SizeCapExceeded
from .graph import (MultiGraph, cayley_zm_power, cycle_bound_from,
                    symmetric_roots)
from .trees import tree_counts

DEFAULT_TOWER_CAP = 1 << 23

#: Per-edge matrix-tree N_e verification is done only below this vertex
#: count; exact big-integer determinants get prohibitive well before the
#: graphs themselves do.
NE_CHECK_LIMIT = 64


def girth_vertex_transitive(g: MultiGraph):
    """Girth from one search root per orbit of g's own checked label
    automorphisms (`graph.symmetric_roots`).

    Exact: an automorphism moves a shortest cycle through some root.  The
    Cayley seed of a tower is one orbit, so it takes one root; an
    unlabelled graph takes every vertex.  math.inf for forests.
    """
    return cycle_bound_from(g, symmetric_roots(g))


@dataclass(frozen=True)
class TowerLevel:
    level: int
    graph: MultiGraph
    girth_value: int
    cover: Optional[CoverGraph]       # None for the Cayley seed
    ne_constant: Optional[bool]       # None when unverified


@dataclass(frozen=True)
class Tower:
    rank: int
    m: int
    levels: tuple[TowerLevel, ...]
    truncated: bool


def build_tower(rank: int, m: int, levels: int,
                size_cap: int = DEFAULT_TOWER_CAP) -> Tower:
    """Build tower levels until the requested count or the size cap.

    The cap failing at level 1 is an error; later levels truncate
    gracefully with the truncation recorded on the result.
    """
    if rank < 2:
        raise InvalidParameter("rank must be at least 2")
    if levels < 1:
        raise InvalidParameter("need at least one level")
    seed = cayley_zm_power(rank, m, size_cap)  # SizeCapExceeded propagates
    built = [TowerLevel(1, seed, girth_vertex_transitive(seed), None,
                        _check_ne(seed))]
    truncated = False
    while len(built) < levels:
        prev = built[-1].graph
        r = prev.edge_count - prev.vertex_count + 1
        next_size = prev.vertex_count * m ** r
        if next_size > size_cap:
            truncated = True
            break
        cover = build_zm_cover(prev, m, size_cap=size_cap)
        g = cover_girth(cover)
        if g <= built[-1].girth_value:  # a raise, not an assert: kept under -O
            raise AssertionError(
                f"girth failed to grow at level {len(built) + 1}")
        built.append(TowerLevel(len(built) + 1, cover.graph, g, cover,
                                _check_ne(cover.graph)))
    return Tower(rank, m, tuple(built), truncated)


def _check_ne(g: MultiGraph) -> Optional[bool]:
    if g.vertex_count > NE_CHECK_LIMIT:
        return None
    return tree_counts(g).constant
