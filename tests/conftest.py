import itertools
import math
import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import strategies as st

from homcover import (MultiGraph, bfs_distance_matrix, build_tower,
                      build_zm_cover, girth, named_graph)
from homcover.errors import NotSpanningTree
from homcover.graph import _shift
from homcover.trees import SpanningTree


@pytest.fixture
def k4():
    return named_graph("k4")


@pytest.fixture
def c5():
    return named_graph("c5")


@pytest.fixture
def petersen():
    return named_graph("petersen")


@pytest.fixture
def double():
    return named_graph("doubled_edge")


@pytest.fixture(scope="session")
def tower_level():
    """The 531,441-vertex second level of build_tower(2, 3, 2), the
    Z_3-homology cover of the Cayley graph of (Z_3)^2, with its profiles
    and orbit representatives built."""
    c = build_tower(2, 3, 2).levels[-1].cover
    c.base_profiles()
    c.orbit_reps()
    return c


@pytest.fixture(scope="session")
def long_cycle_cover():
    """The Z_2-homology cover of cycle:200000, 400,000 vertices, whose
    traversal profiles (400,000 x 200,000 residues, 74.5 GiB) cannot be
    allocated."""
    return build_zm_cover(named_graph("cycle:200000"), 2)


def unblocked_d_q_from(c, x):
    """The collapsed edge sum over the whole profile table at once, in
    int64: sum_e min(z_e, m - z_e) for z the residue difference from x.
    An oracle for metrics.d_q_from, which reads the table's factors."""
    prof = c.base_profiles().astype(np.int64)
    z = (prof - prof[x]) % c.m
    return np.minimum(z, c.m - z).sum(axis=1)


def traced_peak(run):
    """(run(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def to_networkx(g: MultiGraph) -> nx.MultiGraph:
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.vertex_count))
    for e in range(g.edge_count):
        t, hd = g.endpoints(e)
        h.add_edge(t, hd, key=e)
    return h


def label_list_lift_path(c, base_walk, start):
    """Walk lifting on label lists, re-encoding every edge: an oracle for
    cover.lift_path that reads neither the cover's edge arrays nor its
    signed-arc table."""
    v, label = c.decode_vertex(start)
    assert v == base_walk.start
    cotree_pos = {e: i for i, e in enumerate(c.cotree)}
    label = list(label)
    cur = v
    edges = []
    for arc in base_walk.steps:
        e = arc >> 1
        t, h = c.base.endpoints(e)
        pos = cotree_pos.get(e)
        if arc & 1 == 0:
            edges.append(c.encode_edge(e, label))
            if pos is not None:
                label[pos] = (label[pos] + 1) % c.m
            cur = h
        else:
            if pos is not None:
                label[pos] = (label[pos] - 1) % c.m
            edges.append(c.encode_edge(e, label))
            cur = t
    return c.encode_vertex(cur, label), edges


def spanning_tree_sets(g: MultiGraph) -> list[frozenset]:
    """Brute-force enumeration oracle over all (|V|-1)-subsets of edges."""
    n = g.vertex_count
    out = []
    for combo in itertools.combinations(range(g.edge_count), n - 1):
        h = nx.MultiGraph()
        h.add_nodes_from(range(n))
        for e in combo:
            h.add_edge(*g.endpoints(e))
        if h.number_of_edges() == n - 1 and nx.is_connected(h) \
                and nx.is_forest(h):
            out.append(frozenset(combo))
    return out


def tree_from_edge_set_oracle(g: MultiGraph, edge_ids) -> SpanningTree:
    """The SpanningTree of an edge set, reading endpoints one
    `g.endpoints` call at a time: an oracle for trees._tree_from_edge_set."""
    n = g.vertex_count
    edge_ids = sorted(set(int(e) for e in edge_ids))
    if len(edge_ids) != n - 1:
        raise NotSpanningTree(f"need {n - 1} edges, got {len(edge_ids)}")
    adj = [[] for _ in range(n)]
    for e in edge_ids:
        t, h = g.endpoints(e)
        if t == h:
            raise NotSpanningTree(f"edge {e} is a loop")
        adj[t].append((e, h))
        adj[h].append((e, t))
    parent = [None] * n
    seen = [False] * n
    seen[0] = True
    queue = [0]
    i = 0
    while i < len(queue):
        u = queue[i]
        i += 1
        for e, w in adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = (u, e)
                queue.append(w)
    if not all(seen):
        raise NotSpanningTree("edge set does not span")
    tree = frozenset(edge_ids)
    cotree = tuple(e for e in range(g.edge_count) if e not in tree)
    return SpanningTree(tree, tuple(parent), cotree)


def enumerate_spanning_trees_oracle(g: MultiGraph):
    """Every maximal spanning tree in lexicographic edge-id order, by a
    recursive include/exclude search with one generator per level: an
    oracle for trees.enumerate_spanning_trees (no cap)."""
    n = g.vertex_count
    edges = [e for e in range(g.edge_count) if not g.is_loop(e)]

    def find(comp, x):
        while comp[x] != x:
            x = comp[x]
        return x

    def rec(i, comp, chosen):
        if len(chosen) == n - 1:
            yield tree_from_edge_set_oracle(g, chosen)
            return
        if len(edges) - i < (n - 1) - len(chosen):
            return
        e = edges[i]
        t, h = g.endpoints(e)
        rt, rh = find(comp, t), find(comp, h)
        if rt != rh:
            nxt = list(comp)
            nxt[rt] = rh
            chosen.append(e)
            yield from rec(i + 1, nxt, chosen)
            chosen.pop()
        yield from rec(i + 1, comp, chosen)

    yield from rec(0, list(range(n)), [])


def sample_uniform_tree_oracle(g: MultiGraph, seed: int) -> SpanningTree:
    """Wilson's loop-erased random walk over per-vertex `adjacency_of`
    lists, with the same draws: an oracle for trees.sample_uniform_tree
    on a connected graph."""
    n = g.vertex_count
    if n == 1:
        return tree_from_edge_set_oracle(g, [])
    rng = random.Random(seed)
    adj = [g.adjacency_of(v) for v in range(n)]
    in_tree = [False] * n
    in_tree[0] = True
    next_arc = [None] * n
    for v in range(1, n):
        if in_tree[v]:
            continue
        u = v
        while not in_tree[u]:
            arc = adj[u][rng.randrange(len(adj[u]))]
            next_arc[u] = arc
            u = arc[2]
        u = v
        while not in_tree[u]:
            in_tree[u] = True
            u = next_arc[u][2]
    return tree_from_edge_set_oracle(g, [next_arc[v][0] for v in range(1, n)])


def has_loop(g: MultiGraph) -> bool:
    return bool(np.any(g.tails == g.heads))


def has_parallel_pair(g: MultiGraph) -> bool:
    """Whether two non-loop edges join the same two vertices."""
    mask = g.tails != g.heads
    if not np.any(mask):
        return False
    lo = np.minimum(g.tails[mask], g.heads[mask])
    hi = np.maximum(g.tails[mask], g.heads[mask])
    code = np.sort(lo * g.vertex_count + hi)
    return bool(np.any(code[1:] == code[:-1]))


def girth_oracle(g: MultiGraph):
    """Brute-force shortest cycle length via networkx."""
    h = to_networkx(g)
    best = float("inf")
    # loops and parallel edges first: networkx girth ignores multi-edges
    for e in range(g.edge_count):
        if g.is_loop(e):
            return 1
    seen = set()
    for e in range(g.edge_count):
        t, hd = g.endpoints(e)
        if (min(t, hd), max(t, hd)) in seen:
            return 2
        seen.add((min(t, hd), max(t, hd)))
    try:
        best = nx.girth(nx.Graph(h))
    except Exception:  # pragma: no cover - very old networkx
        cycles = nx.cycle_basis(nx.Graph(h))
        best = min((len(c) for c in cycles), default=float("inf"))
    return best


@st.composite
def multigraphs(draw, max_vertices=12, max_edges=24):
    """Multigraphs with loops, parallel edges, isolated vertices and any
    number of components."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    ends = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=max_edges))
    if edges and draw(st.booleans()):
        edges.append(edges[0])  # a parallel pair, or a doubled loop
    return MultiGraph(n, edges)


@st.composite
def connected_multigraphs(draw, max_vertices=6, max_extra_edges=5):
    """Small connected multigraphs: a random spanning tree plus extras."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.append([parent, v])
    extra = draw(st.integers(min_value=0, max_value=max_extra_edges))
    for _ in range(extra):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        edges.append([a, b])
    return MultiGraph(n, edges)


@st.composite
def two_edge_connected_multigraphs(draw, max_vertices=5, max_extra_edges=4):
    """Small 2-edge-connected multigraphs: a cycle plus extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = [[v, (v + 1) % n] for v in range(n)]
    extra = draw(st.integers(min_value=1, max_value=max_extra_edges))
    for _ in range(extra):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        edges.append([a, b])
    # a full cycle has no bridges and extra edges cannot create one
    return MultiGraph(n, edges)


def array_lift_oracle(c, vmap, emap, signs):
    """Vertex map of the lift of a base automorphism if it is an
    automorphism of c.graph, else None, read off whole cover arrays: an
    oracle for cover._checked_lift.

    The lift takes x to the vertex over vmap[v_x] whose label digits are
    the cotree columns of P(prof[x]), P the signed column permutation
    (P p)[emap[e]] = signs[e] * p[e].  Its label ranks are built fiber by
    fiber down the tree: tree edge e moves column e of the profile by +1
    or -1, so it moves column emap[e] of P by signs[e] times that.  The
    map is accepted only if it is a bijection and takes every cover edge
    over e to the cover edge over emap[e] with endpoints (f(t), f(h)),
    swapped where signs[e] < 0.
    """
    deck, m, tree = c.deck_size, c.m, c.tree0
    position = {e: i for i, e in enumerate(c.cotree)}
    inverse = np.empty_like(emap)
    inverse[emap] = np.arange(emap.size)
    src = inverse[list(c.cotree)]
    neg = signs[src] < 0
    digits = c.base_profiles()[:deck, src].astype(np.int64)
    digits[:, neg] = (-digits[:, neg]) % m
    rank = np.empty(c.graph.vertex_count, dtype=np.int64)
    rank[:deck] = digits @ (m ** np.arange(c.r, dtype=np.int64))
    base_tails = c.base.tails.tolist()
    for v in tree.depth_order()[1:]:
        p, e = tree.parent[v]
        parent = rank[p * deck:(p + 1) * deck]
        i = position.get(int(emap[e]))
        if i is None:
            rank[v * deck:(v + 1) * deck] = parent
        else:
            step = 1 if base_tails[e] == p else -1
            rank[v * deck:(v + 1) * deck] = _shift(parent, m ** i, m,
                                                   int(signs[e]) * step)
    f = (rank.reshape(-1, deck) + vmap[:, None] * deck).ravel()
    hit = np.zeros(f.size, dtype=bool)
    hit[f] = True
    if not hit.all():
        return None
    tails = c.graph.tails.astype(np.int64)
    heads = c.graph.heads.astype(np.int64)
    for e in range(c.base.edge_count):
        block = slice(e * deck, (e + 1) * deck)
        t, h = (heads, tails) if signs[e] < 0 else (tails, heads)
        t, h = t[block], h[block]
        image = rank[t]
        seen = np.zeros(deck, dtype=bool)
        seen[image] = True
        image += emap[e] * deck
        if not (seen.all() and np.array_equal(tails[image], f[t])
                and np.array_equal(heads[image], f[h])):
            return None
    return f


def materialised_lift(c, vmap, lift):
    """The vertex map f(v, k) = (vmap[v], A k + b_v mod m) of an affine
    lift (A, b) from cover._checked_lift, as cover vertex ids."""
    a, b = lift
    deck, m = c.deck_size, c.m
    weights = m ** np.arange(c.r, dtype=np.int64)
    labels = np.arange(deck, dtype=np.int64)[:, None] // weights % m
    moved = labels @ a.T
    f = np.empty(c.graph.vertex_count, dtype=np.int64)
    for v in range(c.base.vertex_count):
        f[v * deck:(v + 1) * deck] = (vmap[v] * deck
                                      + (moved + b[v]) % m @ weights)
    return f


# -- isomorphism-invariant fingerprint ---------------------------------------


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
