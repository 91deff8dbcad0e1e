"""Exhaustive census of small alternating decomposition graphs.

Connected candidates are generated in two stages.  Stage 1 builds
connected simple bipartite planar graphs up to isomorphism, vertex by
vertex: the new vertex joins neighbours on one side of its parent's
bipartition, one neighbour set per orbit of the parent's automorphisms,
and a candidate is kept, as its canonical form, when the need bound
below fits the edge budget, the new vertex is its canonical deletion
vertex up to automorphism, and the graph is planar.
Stage 2 assigns edge multiplicities that make every degree even, from
the cycle space of the simple graph, and keeps the least assignment of
each orbit under the simple graph's automorphisms.  Isomorphic atoms
have isomorphic simple graphs, hence one canonical simple graph and one
orbit of assignments on it, so each atom is its class's canonical
representative, whatever order the graphs were generated in (McKay,
*Isomorph-free exhaustive generation*, 1998).  Disconnected graphs are
multisets of connected atoms plus isolated vertices.  The census groups the
reduced graphs by the canonical form of their doubled-path contraction,
and ``families.family_of`` names each class from the same search.
Determinism and completeness within the bounds are contractual; each
query computes both stages afresh and keeps nothing between queries, so
every list returned belongs to its caller.  Speed is desk-scale.

The need bound.  Let a simple graph G have degrees d_v and let
need(d) = max(d + (d mod 2), min_degree).  A multigraph on G's edges
with every multiplicity at least 1, every degree even and every degree
at least min_degree gives vertex v degree at least need(d_v), so by the
handshake lemma it has at least B(G) = sum_v need(d_v) / 2 edges.
need is nondecreasing, so deleting a vertex w never raises B: each
neighbour of w loses one degree, and w's own term goes.  Every
connected graph on v >= 2 vertices keeps its connectivity after the
deletion of some vertex (a leaf of a spanning tree), so a graph with
B <= max_e is grown in stage 1 from a parent with B <= max_e.  Stage 1
therefore drops every child with B > max_e before canonicalising it and
loses no class that stage 2 can use.

One neighbour set per orbit.  An automorphism g of the parent maps
the child on neighbour set S onto the child on g(S), so the two are
isomorphic; g keeps degrees, so the need bound, and keeps or swaps the
two sides of a connected bipartite graph.  Stage 1 therefore tries
each set, drawn from one side, that no earlier orbit has reached and
marks its orbit, closed under the generators that the parent's
canonical search returned (``families.canonical_search``), each
conjugated by the search's labelling onto the kept form.

Canonical deletion.  Call a vertex of a connected graph C deletable
when C without it is connected, give each vertex the key (its degree,
its neighbours' degrees in increasing order), and let w*(C) be the
deletable vertex of highest key with, among those, the greatest
canonical label.  An isomorphism from C onto C' keeps keys,
deletability and, up to an automorphism, canonical labels, so it maps
the Aut(C)-orbit of w*(C) onto that of w*(C').  Stage 1 accepts a child
C = P + v exactly when v lies in the orbit of w*(C) (McKay,
*Isomorph-free exhaustive generation*, J. Algorithms 1998; geng and
Brinkmann and McKay's plantri rank by vertex invariants too).  An
automorphism keeps keys, so when a deletable vertex has a higher key
than v, v lies outside that orbit, and stage 1 rejects it before the
search.  Otherwise w* has v's key, since v is deletable (P is
connected), so only the vertices that share that key are ranked by
label, and v itself is never tested.  A key starts with the degree, so
a vertex of degree below |S|, v's degree, ranks below v: the rule keys
only the vertices of degree at least |S|, each from the child's degree
and adjacency lists, and those keys equal the whole child's.  Every
class is reached: for C on the level's vertex count with B(C) <= max_e,
C - w* is connected, bipartite and planar with need bound at most C's,
so its canonical form P* is kept, and an isomorphism onto P* maps
N(w*) to a set S on one side of P*.  The first-tried member S' of S's orbit under
Aut(P*) gives a child P* + S' isomorphic to C with the new vertex as
w*, which passes the budget, the need bound and the rule.  Each class
is accepted once: an isomorphism between accepted children P1 + S1 and
P2 + S2 maps the orbit of one new vertex onto the other's, so after an
automorphism it takes new vertex to new vertex and restricts to an
isomorphism from P1 onto P2 that maps S1 onto S2.  A level keeps one
parent per class, so P1 = P2, S1 and S2 share an orbit of Aut(P1), and
one set per orbit is tried: S1 = S2.  No table of the forms met is
needed.  A planar graph's canonical parent is planar, so planarity is
tested once per accepted class.  No class is two-coloured: the child
P + S takes P's sides with v opposite S, and the canonical labelling
carries them onto the kept form, which keeps them in its level entry
for its own children.  They are swapped when vertex 0 lands on side 1,
as ``find_bipartition`` would colour them: the order in which a
parent's neighbour sets are drawn, and so the generators kept, depend
on it.

The odd sets are the cycle space.  In a multigraph with every degree
even, each vertex meets an even number of odd-multiplicity edges, so
the odd edges of the simple graph G form an even subgraph: an element
of G's cycle space (Diestel, *Graph Theory*, section 1.9), the span over
GF(2) of the nu = E - V + 1 fundamental cycles of a spanning tree.
Conversely, for each element O of the cycle space, multiplicities that
are odd exactly on O make every degree even.  So stage 2 walks the 2^nu
elements from the edges' fundamental-cycle coordinates
(``perm.fundamental_cycles``), gives each edge of O multiplicity 1 and
every other edge 2, and spreads the spare pairs of the edge budget,
checking each vertex's degree floor at its last edge.  Each assignment
comes out once: its odd edges fix O, and O fixes the pairs.

On one simple graph, multigraph isomorphism is an automorphism.  Let
assignments a and b on G give multigraphs M_a and M_b.  An isomorphism
phi from M_a to M_b sends each edge of positive multiplicity to one,
so it maps the edges of G onto the edges of G: phi is an automorphism
of G with b(phi(e)) = a(e).  Conversely every such automorphism is an
isomorphism.  So the isomorphism classes among the assignments are the
orbits of Aut(G) on them, and the generators that stage 1 kept,
conjugates of those G's canonical search returned, generate Aut(G)
(``families.canonical_search``); an orbit of a finite group is closed
under its generators.

The least member of an orbit is the first per canonical form.  Listing
every assignment in lexicographic order and keeping the first per
canonical form of the multigraph keeps, by the last paragraph, exactly
the lexicographically least member of each orbit, in lexicographic
order.  Stage 2 keeps that list with no canonical form: it sorts the
assignments, keeps each one that no earlier orbit has reached, and
marks its orbit.

Additivity.  The genus recursion's result does not depend on the order
of its choices, and each step touches one component, so on a disjoint
union it runs component by component: the deletion count and ``live -
components`` both add up, and so does the genus.  A graph is reduced
exactly when it is one vertex or every component is a reduced atom, so
a reduced query adds an isolated vertex only to the empty combination.

Order.  Stage-1 levels and the atoms are sorted by (n, E, edges).
Atoms combine in pre-order with nondecreasing indices, so a graph is
the union of its atoms in that order plus its isolated vertices: like
each atom, it is a function of its class, and each graph is built
once.  The graphs are plain values: every atom is loopless, bipartite
and planar, with even degrees, by the two stages above, so the census
validates nothing and takes each atom's genus from the recursion on its
edges; a caller that asks for a graph's genus or embedding validates it
then.  A dropped atom, or a subtree already over the genus (genera are
nonnegative), holds only graphs that a whole-graph filter would reject,
and dropping keeps the atoms' relative order; so the survivors come out
in the unfiltered order, and the stable sort by (n, E) orders them as
it orders the unfiltered list.  Atoms are sorted by vertex count, so
the vertex budget ends a loop; edge counts are not monotone across
vertex counts, so the edge budget skips.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .adgraph import AdGraph, _genus_recursion, planar_embedding
from .errors import BadParametersError, BoundsTooLargeError
from .families import (
    canonical_search,
    contract_with_lengths,
    family_of,
    is_reduced,
)
from .perm import fundamental_cycles, orbit, pair_actions

MAX_FEASIBLE_EDGES = 16
MAX_FEASIBLE_VERTICES = 16


@dataclass(frozen=True)
class CensusFilter:
    max_vertices: int
    max_edges: int
    require_reduced: bool = False
    genus_equals: int | None = None
    allow_isolated: bool = True

    def __post_init__(self):
        if self.max_vertices < 0 or self.max_edges < 0:
            raise BoundsTooLargeError("bounds must be nonnegative")
        if (
            self.max_edges > MAX_FEASIBLE_EDGES
            or self.max_vertices > MAX_FEASIBLE_VERTICES
        ):
            raise BoundsTooLargeError(
                f"bounds beyond feasibility limits "
                f"({MAX_FEASIBLE_VERTICES} vertices / {MAX_FEASIBLE_EDGES} edges)"
            )
        if self.genus_equals is not None and self.genus_equals < 0:
            raise BadParametersError(
                f"genus must be nonnegative, got {self.genus_equals}"
            )


# ---------------------------------------------------------------------------
# stage 1: connected simple bipartite planar graphs up to isomorphism


def _is_planar_bipartite(n: int, edges: tuple[tuple[int, int], ...]) -> bool:
    """Planarity of a simple bipartite graph.  Fewer than 9 edges cannot
    hold a subdivided K5 or K3,3; a planar bipartite graph on v >= 3
    vertices has at most 2v - 4 edges.  Otherwise
    ``adgraph.planar_embedding`` runs the search, without its embedding
    phase."""
    if len(edges) < 9:
        return True
    if n >= 3 and len(edges) > 2 * n - 4:
        return False
    return planar_embedding(range(n), edges, embed=False) is not None


def simple_connected_graphs(
    max_v: int, max_e: int, min_degree: int = 2
) -> list[tuple[AdGraph, list[list[int]]]]:
    """The single vertex and, one per isomorphism class, the connected
    simple bipartite planar graphs with at most ``max_v`` vertices whose
    need bound fits ``max_e``, each as its canonical form with
    generators of its automorphism group, sorted by (n, E, edges): every
    graph that can take even multiplicities, each at least 1, with every
    degree at least ``min_degree`` and at most ``max_e`` edges in all.
    Each level accepts each class once, from its canonical parent, whose
    neighbour sets it draws from each side, one per orbit (see
    "Canonical deletion" above); a level entry keeps its graph's sides
    beside it.  Stage 2 decides which graphs take multiplicities.  A
    child is its parent's degree and adjacency lists plus its neighbour
    set until the rule searches it."""
    def need(d: int) -> int:
        return max(d + d % 2, min_degree)

    levels = [[(AdGraph(1, ()), [], (0,))]]
    for v in range(2, max_v + 1):
        level = []
        for parent, parent_gens, side in levels[-1]:
            budget = max_e - parent.edge_count
            deg = parent.degrees()
            adj: list[list[int]] = [[] for _ in deg]
            for a, b in parent.edges:
                adj[a].append(b)
                adj[b].append(a)
            parent_need = sum(map(need, deg))
            gain = [need(d + 1) - need(d) for d in deg]
            relabel = [lambda nbrs, g=g: tuple(sorted(map(g.__getitem__, nbrs)))
                       for g in parent_gens]
            reached: set[tuple[int, ...]] = set()
            sides = [[u for u in range(v - 1) if side[u] == s] for s in (0, 1)]
            for nbrs in itertools.chain.from_iterable(
                itertools.combinations(part, size)
                for part in sides for size in range(1, min(len(part), budget) + 1)
            ):
                child_need = parent_need + need(len(nbrs)) + sum(gain[u] for u in nbrs)
                if child_need > 2 * max_e or nbrs in reached:
                    continue
                orbit(nbrs, relabel, reached)
                found = _canonical_deletion(parent.edges, deg, adj, nbrs)
                if found is not None and _is_planar_bipartite(v, found[0][1]):
                    key, label, gens = found
                    # the child's sides through the labelling, vertex 0 on side 0
                    turn = [0] * v
                    for u, s in enumerate(side):
                        turn[label[u]] = s
                    turn[label[v - 1]] = 1 - side[nbrs[0]]
                    level.append((AdGraph(v, key[1]), [_conjugate(g, label) for g in gens],
                                  tuple(s ^ turn[0] for s in turn)))
        level.sort(key=lambda kept: _census_order(kept[0]))
        levels.append(level)
    return [(graph, gens) for level in levels for graph, gens, _ in level]


def _census_order(graph: AdGraph) -> tuple:
    return graph.n, graph.edge_count, graph.edges


def _deletable(adj: list[list[int]], w: int) -> bool:
    """Whether the graph of adjacency lists ``adj``, on two or more
    vertices, stays connected without vertex ``w``: one breadth-first
    search that never enters ``w``."""
    start = 1 if w == 0 else 0
    seen = [False] * len(adj)
    seen[w] = seen[start] = True
    todo = [start]
    for u in todo:
        for x in adj[u]:
            if not seen[x]:
                seen[x] = True
                todo.append(x)
    return len(todo) == len(adj) - 1


def _deletion_keys(
    deg: list[int], adj: list[list[int]], least: int
) -> list[tuple[int, tuple[int, list[int]]]]:
    """Each vertex of degree at least ``least`` with its rank as a
    deletion: its degree, then its neighbours' degrees in increasing
    order; every isomorphism keeps both."""
    return [(w, (d, sorted([deg[x] for x in adj[w]])))
            for w, d in enumerate(deg) if d >= least]


def _canonical_deletion(
    edges: tuple[tuple[int, int], ...], deg: list[int], adj: list[list[int]],
    nbrs: tuple[int, ...],
) -> tuple | None:
    """The canonical search of the child that joins a new vertex to
    ``nbrs`` in the parent with ``edges``, degrees ``deg`` and adjacency
    lists ``adj``, when the new vertex lies in the orbit of w*, else
    ``None`` (see "Canonical deletion").  The new vertex is deletable,
    so the child is rejected before the search when a deletable vertex
    has a higher key, and otherwise w* is among the vertices that share
    its key; no other vertex is keyed, and only a searched child is
    built as a graph."""
    new = len(adj)
    deg = deg + [len(nbrs)]
    adj = adj + [list(nbrs)]
    for u in nbrs:
        deg[u] += 1
        adj[u] = adj[u] + [new]
    keys = _deletion_keys(deg, adj, len(nbrs))
    mine = keys[-1][1]
    if any(key > mine and _deletable(adj, w) for w, key in keys):
        return None
    found = canonical_search(AdGraph(new + 1, edges + tuple((u, new) for u in nbrs)))
    _, label, gens = found
    tied = sorted((w for w, key in keys if key == mine),
                  key=label.__getitem__, reverse=True)
    w = next(w for w in tied if w == new or _deletable(adj, w))
    if w == new or new in orbit(w, [g.__getitem__ for g in gens]):
        return found
    return None


def _conjugate(g: list[int], label: list[int]) -> list[int]:
    """The automorphism ``g`` of a graph as an automorphism of its
    canonical form, in which vertex v is ``label[v]``."""
    image = [0] * len(g)
    for v, w in enumerate(g):
        image[label[v]] = label[w]
    return image


# ---------------------------------------------------------------------------
# stage 2: multiplicity assignments


def _even_multiplicity_assignments(
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
    tail = [u for u, _ in edges]
    head = [v for _, v in edges]
    deg = simple.degrees()
    last_at = [0] * simple.n
    for i in range(m):
        last_at[tail[i]] = last_at[head[i]] = i

    results: list[tuple[int, ...]] = []
    current = [0] * m  # past edge i, the parity multiplicity, 1 or 2
    still = [0] * simple.n  # pairs each vertex still lacks for its floor

    def rec(i: int, pairs: int, short: int):
        """Spread at most ``pairs`` spare pairs over edges i..m-1;
        ``short`` sums the positive entries of ``still``."""
        if pairs == 0 or i == m:
            if short == 0:
                results.append(tuple(current))
            return
        u = tail[i]
        v = head[i]
        su, sv = still[u], still[v]
        low = max(su if last_at[u] == i else 0, sv if last_at[v] == i else 0, 0)
        parity = current[i]
        for k in range(low, pairs + 1):
            after = short - min(k, max(su, 0)) - min(k, max(sv, 0))
            # a later pair covers at most two vertices, and this bound
            # only tightens as k grows
            if after > 2 * (pairs - k):
                break
            still[u] = su - k
            still[v] = sv - k
            current[i] = parity + 2 * k
            rec(i + 1, pairs - k, after)
        current[i] = parity
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
        # every edge twice, less one at each end of an odd edge
        current[:] = [2] * m
        base = [2 * d for d in deg]
        rest = odd
        while rest:
            e = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            current[e] = 1
            base[tail[e]] -= 1
            base[head[e]] -= 1
        still[:] = [(min_degree - d + 1) // 2 for d in base]
        rec(0, spare // 2, sum(x for x in still if x > 0))
    results.sort()
    return _least_of_orbits(simple, gens, results)


def _least_of_orbits(
    simple: AdGraph, gens: list[list[int]], assignments: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """The members of the sorted, automorphism-closed ``assignments``
    that no automorphism of ``simple`` maps to a smaller one, the group
    generated by ``gens``.  The first member reached of each orbit is its
    least; the orbit is then closed under the generators and marked."""
    if len(assignments) < 2 or not gens:
        return assignments
    actions = pair_actions(simple.edges, gens)
    kept: list[tuple[int, ...]] = []
    reached: set[tuple[int, ...]] = set()
    for assign in assignments:
        if assign not in reached:
            kept.append(assign)
            orbit(assign, actions, reached)
    return kept


def connected_atoms(max_v: int, max_e: int, min_degree: int = 2) -> list[AdGraph]:
    """Connected alternating decomposition graphs (and the single
    vertex) up to isomorphism within the bounds, each its class's
    canonical representative; sorted by (n, E, edges)."""
    atoms: list[AdGraph] = [AdGraph(1, ())]
    for simple, gens in simple_connected_graphs(max_v, max_e, min_degree):
        if simple.edge_count == 0:
            continue
        for assign in _even_multiplicity_assignments(simple, gens, max_e, min_degree):
            edges = []
            for e, mult in zip(simple.edges, assign):
                edges.extend([e] * mult)
            atoms.append(AdGraph(simple.n, tuple(edges)))
    atoms.sort(key=_census_order)
    return atoms


# ---------------------------------------------------------------------------
# the census proper


def enumerate_adgs(filt: CensusFilter) -> list[AdGraph]:
    """All alternating decomposition graphs within the bounds, one per
    isomorphism class, each the union of canonical atoms in order plus
    isolated vertices, stably sorted by (n, E) (see "Order" above).
    The atoms are valid by construction, so each atom's genus is the
    recursion's answer on its edges, and nothing is validated here."""
    min_degree = 4 if filt.require_reduced else 2
    target = filt.genus_equals
    atoms: list[tuple[AdGraph, int]] = []
    for atom in connected_atoms(filt.max_vertices, filt.max_edges, min_degree):
        if atom.edge_count == 0 or (filt.require_reduced and not is_reduced(atom)):
            continue
        genus = 0 if target is None else _genus_recursion(atom.edges, atom._comp)
        if target is None or genus <= target:
            atoms.append((atom, genus))
    out: list[AdGraph] = []

    def rec(start: int, n: int, edges: tuple, genus: int):
        if target is None or genus == target:
            low = 0 if n else 1
            top = filt.max_vertices - n if filt.allow_isolated else 0
            if filt.require_reduced:
                top = min(top, low)
            for extra in range(low, top + 1):
                out.append(AdGraph(n + extra, edges))
        for i in range(start, len(atoms)):
            atom, atom_genus = atoms[i]
            if n + atom.n > filt.max_vertices:
                break
            if (len(edges) + atom.edge_count > filt.max_edges
                    or (target is not None and genus + atom_genus > target)):
                continue
            rec(i, n + atom.n,
                edges + tuple((u + n, v + n) for u, v in atom.edges),
                genus + atom_genus)

    rec(0, 0, (), 0)
    out.sort(key=lambda g: (g.n, g.edge_count))
    return out


@dataclass
class CensusClass:
    """One doubled-path equivalence class found in the census."""

    contracted: AdGraph
    family: str | None
    parameters: tuple
    members: list[AdGraph] = field(default_factory=list)

    @property
    def representative(self) -> AdGraph:
        return self.members[0]

    @property
    def count(self) -> int:
        return len(self.members)


def census(genus: int, filt: CensusFilter) -> list[CensusClass]:
    """Group the reduced census graphs of the given genus into doubled
    path equivalence classes via canonical contraction."""
    filt = replace(filt, require_reduced=True, genus_equals=genus)
    classes: dict[tuple, CensusClass] = {}
    for graph in enumerate_adgs(filt):
        contracted, lengths = contract_with_lengths(graph)
        found = canonical_search(contracted)
        cls = classes.get(found[0])
        if cls is None:
            cls = classes[found[0]] = CensusClass(
                contracted, *family_of(found, lengths, genus))
        cls.members.append(graph)
    return list(classes.values())
