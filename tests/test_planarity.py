"""The in-house left-right planarity test against networkx.

``adgraph.planar_embedding`` ports networkx's ``check_planarity`` step
for step, so on every graph it must give networkx's answer and, on a
planar graph, networkx's clockwise neighbour lists.  networkx is
imported here only, as the oracle.
"""

from __future__ import annotations

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from census_oracle import unpruned_simple_graphs
from planarity_oracle import whole_graph_rotations
from turaevgenus.adgraph import (
    AdGraph,
    find_bipartition,
    planar_embedding,
    planar_rotations,
)
from turaevgenus.families import doubled_cycle


def networkx_embedding(nodes, pairs) -> list[list[int]] | None:
    """networkx's answer in ``planar_embedding``'s form."""
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(pairs)
    ok, emb = nx.check_planarity(g)
    return [list(emb.neighbors_cw_order(v)) for v in nodes] if ok else None


def assert_matches_networkx(nodes, pairs) -> bool:
    """Same answer and same rotations as networkx, and the same answer
    without the embedding phase; returns planarity."""
    nodes, pairs = list(nodes), list(pairs)
    want = networkx_embedding(nodes, pairs)
    assert planar_embedding(nodes, pairs) == want
    assert planar_embedding(nodes, pairs, embed=False) == (None if want is None else [])
    return want is not None


@st.composite
def simple_graphs(draw):
    """A simple graph on 1-12 distinct labels, with its pairs in a
    drawn order and each pair in a drawn direction."""
    n = draw(st.integers(min_value=1, max_value=12))
    labels = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
    pairs = list(itertools.combinations(labels, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=min(len(pairs), 3 * n))) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return labels, [(b, a) if f else (a, b) for (a, b), f in zip(chosen, flips)]


@settings(max_examples=400, deadline=None)
@given(simple_graphs())
def test_matches_networkx_on_random_graphs(graph):
    assert_matches_networkx(*graph)


def test_matches_networkx_on_every_stage1_candidate():
    """Every child that census stage 1 builds at (8, 12): each graph
    of at most 7 vertices and 12 edges, joined to a new vertex by every
    set of neighbours on one side that keeps the edges within 12."""
    outcomes = []
    for parent in unpruned_simple_graphs(7, 12):
        v = parent.n + 1
        side = find_bipartition(parent)
        for size in range(1, min(v - 1, 12 - parent.edge_count) + 1):
            for nbrs in itertools.combinations(range(v - 1), size):
                if any(side[u] != side[nbrs[0]] for u in nbrs):
                    continue
                edges = parent.edges + tuple((u, v - 1) for u in nbrs)
                outcomes.append(assert_matches_networkx(range(v), edges))
    assert (len(outcomes), outcomes.count(False)) == (1360, 50)


def subdivided(pairs, cuts: int) -> list[tuple[int, int]]:
    """``pairs`` with each of its first ``cuts`` edges subdivided once,
    the new vertices numbered after the old."""
    top = 1 + max(max(p) for p in pairs)
    out = []
    for i, (a, b) in enumerate(pairs):
        if i < cuts:
            out += [(a, top), (top, b)]
            top += 1
        else:
            out.append((a, b))
    return out


K5 = list(itertools.combinations(range(5), 2))
K33 = [(a, b) for a in range(3) for b in range(3, 6)]


@pytest.mark.parametrize("pairs", [K5, K33])
@pytest.mark.parametrize("cuts", [0, 1, 4, 9])
def test_kuratowski_subdivisions_are_not_planar(pairs, cuts):
    graph = subdivided(pairs, cuts)
    nodes = sorted({v for p in graph for v in p})
    assert not assert_matches_networkx(nodes, graph)
    # one edge fewer, and the rest embeds
    assert assert_matches_networkx(nodes, graph[1:])


def triangulation(n: int) -> list[tuple[int, int]]:
    """A maximal planar graph on n >= 4 vertices (3n - 6 edges): the
    path 2, ..., n-1 with both poles 0 and 1 joined to every vertex of
    it, and the poles joined to each other."""
    pairs = [(0, 1)] + [(v, v + 1) for v in range(2, n - 1)]
    return pairs + [(pole, v) for v in range(2, n) for pole in (0, 1)]


@pytest.mark.parametrize("n", [5, 6, 9, 14])
def test_one_edge_past_three_v_minus_six(n):
    pairs = triangulation(n)
    assert len(pairs) == 3 * n - 6
    assert assert_matches_networkx(range(n), pairs)
    present = set(pairs)
    extra = next(p for p in itertools.combinations(range(n), 2) if p not in present)
    assert not assert_matches_networkx(range(n), pairs + [extra])


def test_long_paths_and_cycles_need_no_recursion():
    """Depth-first paths of 5,000 vertices, far past Python's recursion
    limit of 1,000."""
    n = 5000
    path = [(i, i + 1) for i in range(n - 1)]
    assert assert_matches_networkx(range(n), path)
    assert assert_matches_networkx(range(n), path + [(0, n - 1)])
    graph = doubled_cycle(n)
    assert planar_rotations(graph).rotations == whole_graph_rotations(graph)


def test_small_and_empty_graphs():
    assert planar_embedding([], []) == []
    assert planar_embedding([7], []) == [[]]
    assert planar_embedding([3, 5], [(5, 3)]) == [[5], [3]]
    assert planar_embedding([3, 5], [(5, 3)], embed=False) == []
    assert assert_matches_networkx(range(4), itertools.combinations(range(4), 2))
    assert_matches_networkx([4, 2, 9], [(9, 4), (2, 9)])
    graph = AdGraph(3, ((0, 1), (1, 2), (0, 1), (1, 2)))
    assert planar_rotations(graph).rotations == whole_graph_rotations(graph)
