import itertools

import networkx as nx
import pytest
from hypothesis import strategies as st

from homcover import MultiGraph, named_graph


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
