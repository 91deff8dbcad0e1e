"""Oracles for the census.

The unpruned stage 1 is what the need prune of
``census.simple_connected_graphs`` is checked against.  It grows every
connected simple bipartite planar graph with at most the given vertices
and edges, one per isomorphism class, with no bound on what stage 2 can
use, and it asks networkx, not the program, which candidates are
planar.  Stage 2 is ``_even_multiplicity_assignments`` below, run on every
graph.

``_even_multiplicity_assignments`` is stage 2 as it was before it walked
the cycle space, kept verbatim: it backtracks through every multiplicity
vector in lexicographic order and keeps the first per canonical form.

``enumerate_adgs`` is the assembly that ``census.enumerate_adgs``
replaced: it builds every multiset of atoms with every
count of isolated vertices, and only then filters each whole graph by
reducedness and genus.
"""

import itertools
from dataclasses import replace

import networkx as nx

from turaevgenus.adgraph import AdGraph, find_bipartition, turaev_genus_graph
from turaevgenus.census import CensusFilter, connected_atoms
from turaevgenus.families import canonical_form, is_reduced


def census_order(graph: AdGraph) -> tuple:
    """The order of stage-1 levels and of atoms in ``census``."""
    return graph.n, graph.edge_count, graph.edges


def need_bound(graph: AdGraph, min_degree: int) -> int:
    """The fewest edges of an even multigraph on ``graph`` with every
    multiplicity at least 1 and every degree at least ``min_degree``,
    as the handshake lemma bounds it (``min_degree`` is even)."""
    total = sum(max(d + d % 2, min_degree) for d in graph.degrees())
    return total // 2


def unpruned_simple_graphs(max_v: int, max_e: int) -> list[AdGraph]:
    """All connected simple bipartite planar graphs with at most the
    given vertices and edges, each as its canonical form."""
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
                    if nx.check_planarity(nx.Graph(graph.edges))[0]:
                        nxt[key] = AdGraph(v, key[1])
                    else:
                        nonplanar.add(key)
        level = sorted(nxt.values(), key=census_order)
        if not level:
            break
        levels.append(level)
        out.extend(level)
    return out


def _even_multiplicity_assignments(
    simple: AdGraph, max_e: int, min_degree: int
) -> list[tuple[int, ...]]:
    """All per-edge multiplicities >= 1 with total <= max_e making every
    vertex degree even and at least ``min_degree``, one per isomorphism
    class of the resulting multigraph."""
    edges = list(simple.edges)
    m = len(edges)
    if m == 0:
        return [()] if simple.n == 1 and min_degree == 0 else []
    last_at: dict[int, int] = {}
    for i, (u, v) in enumerate(edges):
        last_at[u] = i
        last_at[v] = i

    results: list[tuple[int, ...]] = []
    degree = [0] * simple.n

    def rec(i: int, used: int):
        if i == m:
            results.append(tuple(current))
            return
        u, v = edges[i]
        remaining = m - i - 1
        for mult in range(1, max_e - used - remaining + 1):
            ok = True
            for w in (u, v):
                if last_at[w] == i:
                    d = degree[w] + mult
                    if d % 2 or d < min_degree:
                        ok = False
                        break
            if not ok:
                continue
            degree[u] += mult
            degree[v] += mult
            current.append(mult)
            rec(i + 1, used + mult)
            current.pop()
            degree[u] -= mult
            degree[v] -= mult

    current: list[int] = []
    rec(0, 0)
    # rec emits in lexicographic order, so the first assignment per form
    # is the least of its orbit under the automorphisms of the simple graph
    firsts: dict[tuple, tuple[int, ...]] = {}
    for assign in results:
        multi = [e for e, mult in zip(edges, assign) for _ in range(mult)]
        firsts.setdefault(canonical_form(AdGraph(simple.n, tuple(multi))), assign)
    return list(firsts.values())


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
    atoms.sort(key=census_order)
    return atoms


def enumerate_adgs(filt: CensusFilter) -> list[AdGraph]:
    """All validated alternating decomposition graphs within the bounds,
    one per isomorphism class, in a deterministic order."""
    min_degree = 4 if filt.require_reduced else 2
    atoms = [
        a for a in connected_atoms(filt.max_vertices, filt.max_edges, min_degree)
        if a.edge_count > 0
    ]
    combos: list[tuple[AdGraph, ...]] = []

    def rec(start: int, used_v: int, used_e: int, picked: list[AdGraph]):
        combos.append(tuple(picked))
        for i in range(start, len(atoms)):
            a = atoms[i]
            if used_v + a.n > filt.max_vertices or used_e + a.edge_count > filt.max_edges:
                continue
            picked.append(a)
            rec(i, used_v + a.n, used_e + a.edge_count, picked)
            picked.pop()

    rec(0, 0, 0, [])
    out: list[AdGraph] = []
    for combo in combos:
        used_v = sum(a.n for a in combo)
        used_e = sum(a.edge_count for a in combo)
        isolated_options: tuple[int, ...]
        if filt.allow_isolated:
            isolated_options = tuple(range(0, filt.max_vertices - used_v + 1))
        else:
            isolated_options = (0,)
        for extra in isolated_options:
            n = used_v + extra
            if n == 0 or n > filt.max_vertices:
                continue
            graph = AdGraph(0, ())
            for a in combo:
                graph = graph.disjoint_union(a)
            if extra:
                graph = graph.disjoint_union(AdGraph(extra, ()))
            out.append(graph)
    filtered = []
    for graph in out:
        if filt.require_reduced and not is_reduced(graph):
            continue
        # stage 1 proved each atom's simple graph planar and bipartite,
        # and stage 2 made every degree even: only the bipartition is new
        validated = replace(graph, bipartition=find_bipartition(graph))
        if filt.genus_equals is not None:
            if turaev_genus_graph(validated) != filt.genus_equals:
                continue
        filtered.append(validated)
    filtered.sort(key=lambda g: (g.n, g.edge_count))
    return filtered
