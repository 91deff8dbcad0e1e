"""Whole-graph planar embedding: the oracle that the per-component
``adgraph.planar_rotations`` is checked against.

networkx embeds the simplification of the whole graph in one search,
isolated vertices included; parallel copies are bundled next to each
other, ascending at the lower endpoint and descending at the other.
"""

import networkx as nx

from turaevgenus.adgraph import AdGraph


def whole_graph_rotations(graph: AdGraph) -> tuple[tuple[int, ...], ...]:
    """The rotation system of a planar graph."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    by_pair: dict[tuple[int, int], list[int]] = {}
    for i, (u, v) in enumerate(graph.edges):
        by_pair.setdefault((min(u, v), max(u, v)), []).append(i)
    g.add_edges_from(by_pair)
    ok, emb = nx.check_planarity(g)
    assert ok, "graph is not planar"
    data = emb.get_data()
    rotations = []
    for v in range(graph.n):
        rot: list[int] = []
        for w in data.get(v, []):
            key = (min(v, w), max(v, w))
            bundle = sorted(by_pair[key])
            rot.extend(bundle if v == key[0] else reversed(bundle))
        rotations.append(tuple(rot))
    return tuple(rotations)
