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

``graph_per_child_simple_connected_graphs``, with its rule
``_graph_canonical_deletion`` and the helpers ``_graph_deletion_keys``
and ``_graph_deletable``, is stage 1 as it was when it built every child
that reaches the canonical deletion rule as an ``AdGraph``, computed
every vertex's key, ran one union-find per deletability question and
two-coloured each kept form; ``tuple_per_step_even_multiplicity_assignments``
is the cycle-space stage 2 as it was when it built a parity tuple per
element.  Both are kept verbatim apart from their names, so the flat
array versions in ``census`` are checked against them output for output.

``enumerate_adgs`` is the assembly that ``census.enumerate_adgs``
replaced: it builds every multiset of atoms with every
count of isolated vertices, and only then filters each whole graph by
reducedness and genus.
"""

import itertools
import networkx as nx

from turaevgenus.adgraph import AdGraph, find_bipartition, turaev_genus_graph
from turaevgenus.census import (
    CensusFilter,
    _census_order,
    _conjugate,
    _is_planar_bipartite,
    _least_of_orbits,
    connected_atoms,
)
from turaevgenus.families import canonical_form, canonical_search, is_reduced
from turaevgenus.perm import components, fundamental_cycles, orbit


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
        if filt.genus_equals is not None:
            if turaev_genus_graph(graph) != filt.genus_equals:
                continue
        filtered.append(graph)
    filtered.sort(key=lambda g: (g.n, g.edge_count))
    return filtered


def graph_per_child_simple_connected_graphs(
    max_v: int, max_e: int, min_degree: int = 2
) -> list[tuple[AdGraph, list[list[int]]]]:
    """The single vertex and, one per isomorphism class, the connected
    simple bipartite planar graphs with at most ``max_v`` vertices whose
    need bound fits ``max_e``, each as its canonical form, with
    generators of its automorphism group, sorted by (n, E, edges): every
    graph that
    can take even multiplicities, each at least 1, with every degree at
    least ``min_degree`` and at most ``max_e`` edges in all.  Each level
    accepts each class once, from its canonical parent, whose neighbour
    sets it draws from each side, one per orbit (see "Canonical
    deletion" above); stage 2 decides which graphs take multiplicities."""
    def need(d: int) -> int:
        return max(d + d % 2, min_degree)

    levels = [[(AdGraph(1, ()), [])]]
    out = list(levels[0])
    for v in range(2, max_v + 1):
        level = []
        for parent, parent_gens in levels[-1]:
            budget = max_e - parent.edge_count
            parent_need = sum(map(need, parent.degrees()))
            gain = [need(d + 1) - need(d) for d in parent.degrees()]
            relabel = [lambda nbrs, g=g: tuple(sorted(map(g.__getitem__, nbrs)))
                       for g in parent_gens]
            reached: set[tuple[int, ...]] = set()
            side = find_bipartition(parent)
            sides = [[u for u in range(v - 1) if side[u] == s] for s in (0, 1)]
            for nbrs in itertools.chain.from_iterable(
                itertools.combinations(part, size)
                for part in sides for size in range(1, min(len(part), budget) + 1)
            ):
                child_need = parent_need + need(len(nbrs)) + sum(gain[u] for u in nbrs)
                if child_need > 2 * max_e or nbrs in reached:
                    continue
                orbit(nbrs, relabel, reached)
                child = AdGraph(v, parent.edges + tuple((u, v - 1) for u in nbrs))
                found = _graph_canonical_deletion(child)
                if found is not None and _is_planar_bipartite(v, child.edges):
                    key, label, gens = found
                    form = AdGraph(v, key[1])
                    level.append((form, [_conjugate(g, label) for g in gens]))
        level.sort(key=lambda kept: _census_order(kept[0]))
        levels.append(level)
        out.extend(level)
    return out


def _graph_deletable(graph: AdGraph, w: int) -> bool:
    """Whether ``graph`` without vertex ``w`` is connected."""
    return components(graph.n, (e for e in graph.edges if w not in e))[1] == 2


def _graph_deletion_keys(graph: AdGraph) -> list[tuple[int, list[int]]]:
    """Each vertex's rank as a deletion: its degree, then its neighbours'
    degrees in increasing order; every isomorphism keeps both."""
    deg = graph.degrees()
    around: list[list[int]] = [[] for _ in deg]
    for u, v in graph.edges:
        around[u].append(deg[v])
        around[v].append(deg[u])
    for ds in around:
        ds.sort()
    return list(zip(deg, around))


def _graph_canonical_deletion(graph: AdGraph) -> tuple | None:
    """The canonical search of ``graph`` when its last vertex, the new
    one, lies in the orbit of w*, else ``None`` (see "Canonical
    deletion").  The new vertex is deletable, so it is rejected before
    the search when a deletable vertex has a higher key, and otherwise
    w* is among the vertices that share its key."""
    keys = _graph_deletion_keys(graph)
    new = graph.n - 1
    if any(key > keys[new] and _graph_deletable(graph, w) for w, key in enumerate(keys)):
        return None
    found = canonical_search(graph)
    _, label, gens = found
    tied = sorted((w for w, key in enumerate(keys) if key == keys[new]),
                  key=label.__getitem__, reverse=True)
    w = next(w for w in tied if w == new or _graph_deletable(graph, w))
    if w == new or new in orbit(w, [g.__getitem__ for g in gens]):
        return found
    return None


def tuple_per_step_even_multiplicity_assignments(
    simple: AdGraph, gens: list[list[int]], max_e: int, min_degree: int
) -> list[tuple[int, ...]]:
    """All per-edge multiplicities >= 1 with total <= max_e making every
    vertex degree even and at least ``min_degree``, one per isomorphism
    class of the resulting multigraph: the lexicographically least of
    each orbit under the automorphisms of ``simple``, which ``gens``
    generate, in lexicographic order."""
    edges = simple.edges
    m = len(edges)
    if m == 0:
        return [()] if simple.n == 1 and min_degree == 0 else []
    labels, trees = fundamental_cycles(simple.n, edges)
    last_at: dict[int, int] = {}
    for i, (u, v) in enumerate(edges):
        last_at[u] = i
        last_at[v] = i

    results: list[tuple[int, ...]] = []
    current = [0] * m
    still = [0] * simple.n  # pairs each vertex still lacks for its floor

    def rec(i: int, pairs: int, short: int):
        """Spread at most ``pairs`` spare pairs over edges i..m-1;
        ``short`` sums the positive entries of ``still``."""
        if pairs == 0 or i == m:
            if short == 0:
                results.append(tuple(current[:i]) + parity[i:])
            return
        u, v = edges[i]
        su, sv = still[u], still[v]
        low = max(su if last_at[u] == i else 0, sv if last_at[v] == i else 0, 0)
        for k in range(low, pairs + 1):
            after = short - min(k, max(su, 0)) - min(k, max(sv, 0))
            # a later pair covers at most two vertices, and this bound
            # only tightens as k grows
            if after > 2 * (pairs - k):
                break
            still[u] = su - k
            still[v] = sv - k
            current[i] = parity[i] + 2 * k
            rec(i + 1, pairs - k, after)
        still[u] = su
        still[v] = sv

    # the odd edges form an element of the cycle space: walk its 2^nu
    # elements in Gray-code order, one fundamental cycle toggled per step
    nullity = m - simple.n + trees
    cycles = [sum(1 << e for e, label in enumerate(labels) if label >> k & 1)
              for k in range(nullity)]
    odd = 0
    for step in range(1 << nullity):
        if step:
            odd ^= cycles[(step & -step).bit_length() - 1]
        spare = max_e - 2 * m + odd.bit_count()
        if spare < 0:
            continue
        parity = tuple(1 if odd >> e & 1 else 2 for e in range(m))
        base = [0] * simple.n
        for (u, v), mult in zip(edges, parity):
            base[u] += mult
            base[v] += mult
        still[:] = [(min_degree - d + 1) // 2 for d in base]
        rec(0, spare // 2, sum(x for x in still if x > 0))
    results.sort()
    return _least_of_orbits(simple, gens, results)
