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
label, and v itself is never tested.  Every class is reached: for C
on the level's vertex count with B(C) <= max_e, C - w* is connected,
bipartite and planar with need bound at most C's, so its canonical
form P* is kept, and an isomorphism onto P* maps N(w*) to a
set S on one side of P*.  The first-tried member S' of S's orbit under
Aut(P*) gives a child P* + S' isomorphic to C with the new vertex as
w*, which passes the budget, the need bound and the rule.  Each class
is accepted once: an isomorphism between accepted children P1 + S1 and
P2 + S2 maps the orbit of one new vertex onto the other's, so after an
automorphism it takes new vertex to new vertex and restricts to an
isomorphism from P1 onto P2 that maps S1 onto S2.  A level keeps one
parent per class, so P1 = P2, S1 and S2 share an orbit of Aut(P1), and
one set per orbit is tried: S1 = S2.  No table of the forms met is
needed.  A planar graph's canonical parent is planar, so planarity is
tested once per accepted class, and each accepted class is two-coloured
once, on its canonical form, where it is kept.

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
each atom, it is a function of its class.  An atom carries its simple
graph's two-colouring, made in stage 1, since multiplicities move no
vertex across; it is connected, so vertex 0 is on side 0.  The atoms'
sides in that order, then side 0 for each isolated vertex, are the
union's two-colouring with the least vertex of each component on side
0, which is what ``find_bipartition`` gives, so no graph is coloured
again and each graph is built once.  A dropped atom, or a subtree
already over the genus (genera are nonnegative), holds only graphs that
a whole-graph filter would reject, and dropping keeps the atoms'
relative order; so the survivors come out in the unfiltered order, and
the stable sort by (n, E) orders them as it orders the unfiltered list.
Atoms are sorted by vertex count, so the vertex budget ends a loop; edge
counts are not monotone across vertex counts, so the edge budget skips.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .adgraph import (
    AdGraph,
    find_bipartition,
    planar_embedding,
    turaev_genus_graph,
)
from .errors import BadParametersError, BoundsTooLargeError
from .families import (
    canonical_search,
    contract_with_lengths,
    family_of,
    is_reduced,
)
from .perm import components, fundamental_cycles, orbit, pair_actions

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
    need bound fits ``max_e``, each as its canonical form carrying its
    bipartition, with generators of its automorphism group, sorted by
    (n, E, edges): every graph that
    can take even multiplicities, each at least 1, with every degree at
    least ``min_degree`` and at most ``max_e`` edges in all.  Each level
    accepts each class once, from its canonical parent, whose neighbour
    sets it draws from each side, one per orbit (see "Canonical
    deletion" above); stage 2 decides which graphs take multiplicities."""
    def need(d: int) -> int:
        return max(d + d % 2, min_degree)

    levels = [[(AdGraph(1, (), (0,)), [])]]
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
            side = parent.bipartition
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
                found = _canonical_deletion(child)
                if found is not None and _is_planar_bipartite(v, child.edges):
                    key, label, gens = found
                    form = AdGraph(v, key[1])
                    level.append((AdGraph(v, form.edges, find_bipartition(form)),
                                  [_conjugate(g, label) for g in gens]))
        level.sort(key=lambda kept: _census_order(kept[0]))
        levels.append(level)
        out.extend(level)
    return out


def _census_order(graph: AdGraph) -> tuple:
    return graph.n, graph.edge_count, graph.edges


def _deletable(graph: AdGraph, w: int) -> bool:
    """Whether ``graph`` without vertex ``w`` is connected."""
    return components(graph.n, (e for e in graph.edges if w not in e))[1] == 2


def _deletion_keys(graph: AdGraph) -> list[tuple[int, list[int]]]:
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


def _canonical_deletion(graph: AdGraph) -> tuple | None:
    """The canonical search of ``graph`` when its last vertex, the new
    one, lies in the orbit of w*, else ``None`` (see "Canonical
    deletion").  The new vertex is deletable, so it is rejected before
    the search when a deletable vertex has a higher key, and otherwise
    w* is among the vertices that share its key."""
    keys = _deletion_keys(graph)
    new = graph.n - 1
    if any(key > keys[new] and _deletable(graph, w) for w, key in enumerate(keys)):
        return None
    found = canonical_search(graph)
    _, label, gens = found
    tied = sorted((w for w, key in enumerate(keys) if key == keys[new]),
                  key=label.__getitem__, reverse=True)
    w = next(w for w in tied if w == new or _deletable(graph, w))
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
    vertex) up to isomorphism within the bounds, each a canonical
    representative carrying its simple graph's bipartition, so the genus
    recursion takes it as it is; sorted by (n, E, edges)."""
    atoms: list[AdGraph] = [AdGraph(1, (), (0,))]
    for simple, gens in simple_connected_graphs(max_v, max_e, min_degree):
        if simple.edge_count == 0:
            continue
        for assign in _even_multiplicity_assignments(simple, gens, max_e, min_degree):
            edges = []
            for e, mult in zip(simple.edges, assign):
                edges.extend([e] * mult)
            atoms.append(AdGraph(simple.n, tuple(sorted(edges)), simple.bipartition))
    atoms.sort(key=_census_order)
    return atoms


# ---------------------------------------------------------------------------
# the census proper


def enumerate_adgs(filt: CensusFilter) -> list[AdGraph]:
    """All alternating decomposition graphs within the bounds, one per
    isomorphism class, each the union of canonical atoms carrying the
    atoms' bipartitions in order, stably sorted by (n, E) (see "Order"
    above).  Nothing is two-coloured or validated again here."""
    min_degree = 4 if filt.require_reduced else 2
    target = filt.genus_equals
    atoms: list[tuple[AdGraph, int]] = []
    for atom in connected_atoms(filt.max_vertices, filt.max_edges, min_degree):
        if atom.edge_count == 0 or (filt.require_reduced and not is_reduced(atom)):
            continue
        genus = 0 if target is None else turaev_genus_graph(atom)
        if target is None or genus <= target:
            atoms.append((atom, genus))
    out: list[AdGraph] = []

    def rec(start: int, n: int, edges: tuple, sides: tuple, genus: int):
        if target is None or genus == target:
            low = 0 if n else 1
            top = filt.max_vertices - n if filt.allow_isolated else 0
            if filt.require_reduced:
                top = min(top, low)
            for extra in range(low, top + 1):
                out.append(AdGraph(n + extra, edges, sides + (0,) * extra))
        for i in range(start, len(atoms)):
            atom, atom_genus = atoms[i]
            if n + atom.n > filt.max_vertices:
                break
            if (len(edges) + atom.edge_count > filt.max_edges
                    or (target is not None and genus + atom_genus > target)):
                continue
            rec(i, n + atom.n,
                edges + tuple((u + n, v + n) for u, v in atom.edges),
                sides + atom.bipartition, genus + atom_genus)

    rec(0, 0, (), (), 0)
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
