"""Unpruned census stage 1: the oracle that the need prune of
``census.simple_connected_graphs`` is checked against.

It grows every connected simple bipartite planar graph with at most the
given vertices and edges, one per isomorphism class, with no bound on
what stage 2 can use.  Stage 2 is the program's own
``_even_multiplicity_assignments``, run on every graph.
"""

import itertools

from turaevgenus.adgraph import AdGraph, find_bipartition
from turaevgenus.census import _even_multiplicity_assignments, _is_planar_bipartite
from turaevgenus.families import canonical_form, wl_hash


def need_bound(graph: AdGraph, min_degree: int) -> int:
    """The fewest edges of an even multigraph on ``graph`` with every
    multiplicity at least 1 and every degree at least ``min_degree``,
    as the handshake lemma bounds it (``min_degree`` is even)."""
    total = sum(max(d + d % 2, min_degree) for d in graph.degrees())
    return total // 2


def unpruned_simple_graphs(max_v: int, max_e: int) -> list[AdGraph]:
    """All connected simple bipartite planar graphs with at most the
    given vertices and edges, one per isomorphism class."""
    levels: list[list[AdGraph]] = [[AdGraph(1, ())]]
    out = [AdGraph(1, ())]
    for v in range(2, max_v + 1):
        nxt: dict[tuple, AdGraph] = {}
        nonplanar: set[tuple] = set()
        for parent in levels[-1]:
            budget = max_e - parent.edge_count
            if budget < 1:
                continue
            side = find_bipartition(parent)
            for size in range(1, min(v - 1, budget) + 1):
                for nbrs in itertools.combinations(range(v - 1), size):
                    if any(side[u] != side[nbrs[0]] for u in nbrs):
                        continue
                    graph = AdGraph(v, parent.edges + tuple((u, v - 1) for u in nbrs))
                    key = canonical_form(graph)
                    if key in nxt or key in nonplanar:
                        continue
                    if _is_planar_bipartite(v, graph.edges):
                        nxt[key] = graph
                    else:
                        nonplanar.add(key)
        level = sorted(nxt.values(), key=wl_hash)
        if not level:
            break
        levels.append(level)
        out.extend(level)
    return out


def unpruned_atoms(max_v: int, max_e: int, min_degree: int) -> list[AdGraph]:
    """``census.connected_atoms`` over the unpruned stage 1."""
    atoms: list[AdGraph] = [AdGraph(1, ())]
    for simple in unpruned_simple_graphs(max_v, max_e):
        if simple.edge_count == 0:
            continue
        for assign in _even_multiplicity_assignments(simple, max_e, min_degree):
            edges = []
            for e, mult in zip(simple.edges, assign):
                edges.extend([e] * mult)
            atoms.append(AdGraph(simple.n, tuple(sorted(edges))))
    atoms.sort(key=lambda g: (g.n, g.edge_count, wl_hash(g)))
    return atoms
