"""Abstract alternating decomposition graphs.

An alternating decomposition graph is a loopless multigraph that is
planar and bipartite with every vertex of even degree.  Its Turaev genus
is computed by a recursion that never references link diagrams:

* isolated vertices contribute zero;
* contracting the two edges at a degree-two vertex preserves the genus;
* deleting a parallel pair adds one when the deletion keeps the
  component count, and nothing when it splits the component.

The recursion terminates because each step removes two edges, and a
graph with edges but no degree-two vertex always contains a parallel
pair.

Planarity is decided in one place, ``planar_embedding``: the left-right
test of Brandes (2009), ported from networkx over flat arrays, whose
clockwise rotations ``planar_rotations`` turns into a checked sphere
embedding.  The package needs nothing outside the standard library.
"""

from __future__ import annotations

import random
from dataclasses import KW_ONLY, dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    HasLoopError,
    MalformedLineError,
    NotBipartiteError,
    NotEmbeddedError,
    NotPlanarError,
    NotSphericalError,
    OddDegreeError,
    TuraevError,
    integers,
)
from . import perm
from .ribbon import RibbonGraph


@dataclass(frozen=True)
class AdGraph:
    """Loopless multigraph, optionally carrying a per-component sphere
    embedding.

    ``edges`` keeps one entry per parallel copy, each stored as
    ``(min, max)`` whatever order it is given in.  ``rotations``, given
    by keyword only, gives, for each vertex, the cyclic counterclockwise
    order of incident edge indices; each edge must sit once at each of
    its two endpoints, which ``half_edges`` checks.  ``_comp``,
    ``_slots`` and ``_valid`` compute the component labels, the
    half-edge arrays and ``validate_adg``'s answer at most once per
    graph object (a failure is not kept); ``replace`` starts a new
    object with none, and equality, hash and repr ignore them.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    _: KW_ONLY
    rotations: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise HasLoopError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
        if any(u > v for u, v in self.edges):
            object.__setattr__(
                self,
                "edges",
                tuple((min(u, v), max(u, v)) for u, v in self.edges),
            )

    # -- structure ---------------------------------------------------------

    @cached_property
    def _comp(self) -> tuple[list[int], int]:
        return perm.components(self.n, self.edges)

    @cached_property
    def _slots(self) -> tuple[list[int], list[int], list[int]]:
        return half_edges(self)

    @cached_property
    def _valid(self) -> "AdGraph | None":
        # ``None`` when this graph is its own answer, not ``self``: a
        # graph that referred to itself would wait for the cycle collector
        for v, d in enumerate(self.degrees()):
            if d % 2:
                raise OddDegreeError(v, d)
        find_bipartition(self)
        if self.rotations is not None:
            check_sphere_embedding(self)
            return None
        embedded = planar_rotations(self)
        vars(embedded).update(_valid=None)
        return embedded

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def components(self) -> list[list[int]]:
        return perm.groups(*self._comp)

    def component_count(self) -> int:
        return self._comp[1]

    def multiplicity(self) -> dict[tuple[int, int], int]:
        mult: dict[tuple[int, int], int] = {}
        for e in self.edges:
            mult[e] = mult.get(e, 0) + 1
        return mult

    def relabeled(self, perm: Sequence[int]) -> "AdGraph":
        """Apply vertex permutation ``perm`` (old index -> new index)."""
        return AdGraph(self.n, tuple((perm[u], perm[v]) for u, v in self.edges))

    def disjoint_union(self, other: "AdGraph") -> "AdGraph":
        shifted = tuple((u + self.n, v + self.n) for u, v in other.edges)
        return AdGraph(self.n + other.n, self.edges + shifted)

    def __repr__(self) -> str:
        return f"<AdGraph n={self.n} e={self.edge_count}>"


def simplify(graph: AdGraph) -> AdGraph:
    """Collapse every parallel class to a single edge, in order of first
    appearance."""
    return AdGraph(graph.n, tuple(dict.fromkeys(graph.edges)))


def nullity(graph: AdGraph) -> int:
    """e - v + k, the rank of the cycle space."""
    return graph.edge_count - graph.n + graph.component_count()


# -- validation ------------------------------------------------------------------

def find_bipartition(graph: AdGraph) -> tuple[int, ...]:
    """Side of each vertex, the least vertex of each component on side 0;
    raises ``NotBipartiteError`` with an odd cycle."""
    side, cycle = perm.two_colouring(graph.n, ((u, v, 1) for u, v in graph.edges))
    if cycle is not None:
        raise NotBipartiteError(cycle)
    return tuple(side)


def validate_adg(graph: AdGraph) -> AdGraph:
    """Check even degrees, bipartiteness and per-component planarity,
    once per graph object, and return the graph embedded: the same
    object on every call, which is its own answer.

    A graph carrying a rotation system is proved planar by its own
    embedding (``check_sphere_embedding``) and comes back as it is.
    Otherwise ``planar_rotations`` runs the planarity search, and the
    graph comes back carrying the embedding it found, seeded with the
    input's component labels.  This is the only way a graph is
    validated; loops are already rejected at construction.
    """
    valid = graph._valid
    return graph if valid is None else valid


# -- embeddings -----------------------------------------------------------------

def half_edges(graph: AdGraph) -> tuple[list[int], list[int], list[int]]:
    """Flat half-edge arrays of an embedded graph.

    Half-edge h is slot h of the concatenated rotation tables.  Returns
    ``(partner, face_step, vertex)``: ``partner`` pairs the two slots of
    each edge, ``face_step[h]`` is the slot counterclockwise after
    ``partner[h]`` (faces are its orbits), and ``vertex[h]`` holds slot
    h.  Raises ``NotEmbeddedError`` unless each edge sits exactly once
    at each of its two endpoints.
    """
    if graph.rotations is None:
        raise NotEmbeddedError("graph carries no rotation system")
    if len(graph.rotations) != graph.n:
        raise NotEmbeddedError(
            f"{len(graph.rotations)} rotation tables for {graph.n} vertices"
        )
    edge_at: list[int] = []  # the edge at each slot
    vertex: list[int] = []
    succ: list[int] = []
    for v, rot in enumerate(graph.rotations):
        if rot:
            base = len(edge_at)
            edge_at += rot
            vertex += [v] * len(rot)
            succ += range(base + 1, len(edge_at))
            succ.append(base)
    # slots run in vertex order, so an edge's first slot is at its lower
    # end; one pass pairs each later slot with the first.  It runs only
    # on 2m slots holding edges 0..m-1, else ``partner`` keeps its -1s.
    # Then an edge listed once leaves a -1 in ``partner``, one never
    # listed a -1 in ``first``, and one listed three or more times forces
    # one of those; the ends are read only when neither holds a -1.  The
    # messages are built only on failure.
    m = len(graph.edges)
    first = [-1] * m
    partner = [-1] * len(edge_at)
    if (len(edge_at) == 2 * m and min(edge_at, default=0) >= 0
            and max(edge_at, default=0) < m):
        for h, e in enumerate(edge_at):
            g = first[e]
            if g < 0:
                first[e] = h
            else:
                partner[g] = h
                partner[h] = g
    lower = map(vertex.__getitem__, first)
    upper = map(vertex.__getitem__, map(partner.__getitem__, first))
    if (-1 in first or -1 in partner
            or tuple(zip(lower, upper)) != tuple(map(tuple, graph.edges))):
        slots: dict[int, list[int]] = {}
        for h, e in enumerate(edge_at):
            slots.setdefault(e, []).append(h)
        for e, ends in enumerate(graph.edges):
            at = [vertex[h] for h in slots.pop(e, [])]
            if at != list(ends):
                raise NotEmbeddedError(
                    f"edge {e} {ends} sits at vertices {at} in the rotation system"
                )
        raise NotEmbeddedError(
            f"rotation system lists unknown edges {sorted(slots)}"
        )
    return partner, list(map(succ.__getitem__, partner)), vertex


def check_sphere_embedding(graph: AdGraph) -> None:
    """Euler check V - E + F = 2 on every component; a failing component
    raises ``NotSphericalError``, whatever its own planarity."""
    _, face_step, vertex = graph._slots
    comp, k = graph._comp
    chi = [0] * k
    for v, rot in enumerate(graph.rotations):
        # an isolated vertex has a single disk face
        chi[comp[v]] += 1 if rot else 2
    for u, _ in graph.edges:
        chi[comp[u]] -= 1
    for h in perm.least_points(perm.orbits(face_step)[0]):
        chi[comp[vertex[h]]] += 1
    for c, value in enumerate(chi):
        if value != 2:
            raise NotSphericalError(perm.groups(comp, k)[c])


def planar_embedding(
    nodes: Iterable[int], pairs: Iterable[tuple[int, int]], embed: bool = True
) -> list[list[int]] | None:
    """The planarity search on the simple graph with vertices ``nodes``
    and edges ``pairs`` (distinct pairs of distinct nodes).  Returns the
    clockwise neighbour list of each node, in the order of ``nodes``, or
    ``None`` when the graph is not planar.  Every planarity question in
    ``turaevgenus`` comes here.  With ``embed`` false the search stops
    after its testing phase, and a planar graph gets an empty list.

    Vertices are renumbered by position.  The edges are listed by their
    lower end, and at each lower end in the order ``pairs`` gives them:
    that is the order in which networkx (3.6.1) copies the graph before
    its own left-right test, so ``_left_right``, which keeps networkx's
    traversal orders, finds the same embedding."""
    nodes = list(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    higher: list[list[int]] = [[] for _ in nodes]
    for a, b in pairs:
        i, j = index[a], index[b]
        if i < j:
            higher[i].append(j)
        else:
            higher[j].append(i)
    rotations = _left_right(
        len(nodes), [(i, j) for i, js in enumerate(higher) for j in js], embed)
    if rotations is None:
        return None
    return [[nodes[w] for w in rot] for rot in rotations]


def _left_right(
    n: int, edges: list[tuple[int, int]], embed: bool = True
) -> list[list[int]] | None:
    """The left-right planarity test (Brandes, *The left-right planarity
    test*, 2009, after de Fraysseix, Ossona de Mendez and Rosenstiehl)
    on vertices 0..n-1 and the simple graph ``edges``, each ``(i, j)``
    with ``i < j``: the clockwise neighbour list of every vertex, or
    ``None`` when the graph is not planar.

    A port of ``LRPlanarity.lr_planarity`` in networkx 3.6.1 (BSD),
    step for step and in its traversal orders: roots in vertex order,
    each vertex's edges in the order of ``edges``, a stable sort by
    nesting depth, and the clockwise list started from the neighbour
    networkx starts it from.  Edges are numbered by position in
    ``edges`` and every attribute is a flat list over vertices or edges;
    the three depth-first searches keep explicit stacks, so a long path
    needs no recursion.  A conflict pair is a list ``[left low, left
    high, right low, right high]`` of edges, -1 for none.  With ``embed``
    false a planar graph gets an empty list once the testing phase has
    passed."""
    m = len(edges)
    if n > 2 and m > 3 * n - 6:
        return None
    # each vertex's edges in the order of ``edges``: slots first[v]..first[v+1]-1
    first = [0] * (n + 1)
    for i, j in edges:
        first[i + 1] += 1
        first[j + 1] += 1
    for v in range(n):
        first[v + 1] += first[v]
    fill = first[:n]
    slot_edge = [0] * (2 * m)
    ends = [0] * m  # i + j, so the far end from v is ends[k] - v
    for k, (i, j) in enumerate(edges):
        slot_edge[fill[i]] = k
        fill[i] += 1
        slot_edge[fill[j]] = k
        fill[j] += 1
        ends[k] = i + j

    # -- orientation: a depth-first search orients each edge away from
    # the vertex it is first met at, and gives each edge its lowpoints
    height = [-1] * n
    parent = [-1] * n  # the tree edge into each vertex
    tail = [-1] * m
    head = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    roots: list[int] = []
    at = first[:n]
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent[v]
            hv = height[v]
            s, stop = at[v], first[v + 1]
            while s < stop:
                k = slot_edge[s]
                t = tail[k]
                if t < 0:
                    w = ends[k] - v
                    tail[k], head[k] = v, w
                    lowpt[k] = lowpt2[k] = hv
                    if height[w] < 0:  # tree edge: finish k after w
                        parent[w] = k
                        height[w] = hv + 1
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt[k] = height[w]  # back edge
                elif t != v:  # oriented from its other end
                    s += 1
                    continue
                nesting[k] = 2 * lowpt[k] + (lowpt2[k] < hv)  # chordal: +1
                if e >= 0:
                    if lowpt[k] < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], lowpt2[k])
                        lowpt[e] = lowpt[k]
                    elif lowpt[k] > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], lowpt[k])
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[k])
                s += 1
            at[v] = s
    out = [[slot_edge[s] for s in range(first[v], first[v + 1])
            if tail[slot_edge[s]] == v] for v in range(n)]

    # -- testing: a second search in nesting order merges the return
    # edges of each tree edge into conflict pairs, on one stack
    ordered = [sorted(ks, key=nesting.__getitem__) for ks in out]
    conflicts: list[list[int]] = []  # the stack of conflict pairs
    bottom: list = [None] * m  # the pair on top of it when k was entered
    lowpt_edge = [0] * m
    ref = [-1] * m
    side = [1] * m

    def conflicting(high: int, b: int) -> bool:
        return high >= 0 and lowpt[high] > lowpt[b]

    def lowest(p: list[int]) -> int:
        if p[0] < 0 and p[1] < 0:
            return lowpt[p[2]]
        if p[2] < 0 and p[3] < 0:
            return lowpt[p[0]]
        return min(lowpt[p[0]], lowpt[p[2]])

    def add_constraints(ei: int, e: int) -> bool:
        p = [-1, -1, -1, -1]
        # merge the return edges of ei into p's right interval
        while True:
            q = conflicts.pop()
            if q[0] >= 0 or q[1] >= 0:
                q[:] = q[2], q[3], q[0], q[1]
                if q[0] >= 0 or q[1] >= 0:
                    return False
            if lowpt[q[2]] > lowpt[e]:
                if p[2] < 0 and p[3] < 0:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            else:  # align
                ref[q[2]] = lowpt_edge[e]
            if (conflicts[-1] if conflicts else None) is bottom[ei]:
                break
        # merge the conflicting return edges of earlier siblings into the left
        while conflicting(conflicts[-1][1], ei) or conflicting(conflicts[-1][3], ei):
            q = conflicts.pop()
            if conflicting(q[3], ei):
                q[:] = q[2], q[3], q[0], q[1]
                if conflicting(q[3], ei):
                    return False
            if p[2] >= 0:
                ref[p[2]] = q[3]
            if q[2] >= 0:
                p[2] = q[2]
            if p[0] < 0 and p[1] < 0:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if p != [-1, -1, -1, -1]:
            conflicts.append(p)
        return True

    def remove_back_edges(e: int) -> None:
        u = tail[e]
        hu = height[u]
        # drop the pairs whose lowest return edge ends at u
        while conflicts and lowest(conflicts[-1]) == hu:
            p = conflicts.pop()
            if p[0] >= 0:
                side[p[0]] = -1
        if conflicts:  # trim the return edges ending at u from the next pair
            p = conflicts[-1]
            while p[1] >= 0 and head[p[1]] == u:
                p[1] = ref[p[1]]
            if p[1] < 0 and p[0] >= 0:  # just emptied
                ref[p[0]] = p[2]
                side[p[0]] = -1
                p[0] = -1
            while p[3] >= 0 and head[p[3]] == u:
                p[3] = ref[p[3]]
            if p[3] < 0 and p[2] >= 0:
                ref[p[2]] = p[0]
                side[p[2]] = -1
                p[2] = -1
        # the side of e is the side of a highest return edge
        if lowpt[e] < hu:
            hl, hr = conflicts[-1][1], conflicts[-1][3]
            ref[e] = hl if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]) else hr

    at = [0] * n
    entered = bytearray(m)
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent[v]
            ks = ordered[v]
            i = at[v]
            descended = False
            while i < len(ks):
                k = ks[i]
                if not entered[k]:
                    bottom[k] = conflicts[-1] if conflicts else None
                    if parent[head[k]] == k:  # tree edge: finish k after its head
                        entered[k] = 1
                        stack.append(v)
                        stack.append(head[k])
                        descended = True
                        break
                    lowpt_edge[k] = k
                    conflicts.append([-1, -1, k, k])
                if lowpt[k] < height[v]:  # k has a return edge
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[k]
                    elif not add_constraints(k, e):
                        return None
                i += 1
            at[v] = i
            if not descended and e >= 0:
                remove_back_edges(e)
    if not embed:
        return []

    # -- embedding: resolve each side along its chain of references,
    # sort again by signed nesting depth, and place the back edges
    for k in range(m):
        if ref[k] >= 0:
            chain = []
            j = k
            while ref[j] >= 0:
                chain.append(j)
                j = ref[j]
            sign = side[j]
            for j in reversed(chain):
                sign = side[j] = side[j] * sign
                ref[j] = -1
        nesting[k] *= side[k]
    # half-edge 2k sits at tail[k], 2k + 1 at head[k]; each vertex's
    # half-edges form a cyclic list (cw, ccw), entered at leftmost
    cw = [0] * (2 * m)
    ccw = [0] * (2 * m)
    leftmost = [-1] * n
    ordered = [sorted(ks, key=nesting.__getitem__) for ks in out]
    for v, ks in enumerate(ordered):
        if ks:
            prev = 2 * ks[-1]
            for k in ks:
                cw[prev] = 2 * k
                ccw[2 * k] = prev
                prev = 2 * k
            leftmost[v] = 2 * ks[0]

    def insert_ccw_of(v: int, h: int, ref_h: int) -> None:
        """Put h just counterclockwise of ref_h at v; it is v's leftmost
        if ref_h was."""
        before = ccw[ref_h]
        cw[h], ccw[h] = ref_h, before
        cw[before] = ccw[ref_h] = h
        if leftmost[v] == ref_h:
            leftmost[v] = h

    def insert_cw_of(h: int, ref_h: int) -> None:
        """Put h just clockwise of ref_h."""
        after = cw[ref_h]
        cw[h], ccw[h] = after, ref_h
        ccw[after] = cw[ref_h] = h

    left_ref = [-1] * n
    right_ref = [-1] * n
    at = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            ks = ordered[v]
            i = at[v]
            while i < len(ks):
                k = ks[i]
                i += 1
                w = head[k]
                h = 2 * k + 1
                if parent[w] == k:  # tree edge: v becomes w's leftmost
                    if leftmost[w] < 0:
                        cw[h] = ccw[h] = leftmost[w] = h
                    else:
                        insert_ccw_of(w, h, leftmost[w])
                    left_ref[v] = right_ref[v] = 2 * k
                    stack.append(v)
                    stack.append(w)
                    break
                if side[k] == 1:
                    insert_cw_of(h, right_ref[w])
                else:
                    insert_ccw_of(w, h, left_ref[w])
                    left_ref[w] = h
            at[v] = i

    rotations: list[list[int]] = []
    for v in range(n):
        rot: list[int] = []
        h = start = leftmost[v]
        while h >= 0:
            k = h >> 1
            rot.append(tail[k] if h & 1 else head[k])
            h = cw[h]
            if h == start:
                break
        rotations.append(rot)
    return rotations


def planar_rotations(graph: AdGraph) -> AdGraph:
    """The graph with a sphere rotation system from a planarity
    certificate, checked by ``check_sphere_embedding``, seeded with the
    input's component labels.

    ``planar_embedding`` embeds the simplification of each component with
    two or more vertices, and raises ``NotPlanarError`` for the first
    that is not planar; parallel copies are then bundled next to each
    other, ascending at the lower endpoint and descending at the other,
    which closes each extra copy into a bigon face.
    """
    by_pair: dict[tuple[int, int], list[int]] = {}
    for i, e in enumerate(graph.edges):
        by_pair.setdefault(e, []).append(i)
    comp, k = graph._comp
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for key in by_pair:
        pairs[comp[key[0]]].append(key)
    rotations: list[tuple[int, ...]] = [()] * graph.n
    for members, own in zip(perm.groups(comp, k), pairs):
        if not own:
            continue
        emb = planar_embedding(members, own)
        if emb is None:
            raise NotPlanarError(members)
        for v, clockwise in zip(members, emb):
            rot: list[int] = []
            for w in clockwise:
                bundle = by_pair[_pair(v, w)]
                rot.extend(bundle if v < w else reversed(bundle))
            rotations[v] = tuple(rot)
    embedded = replace(graph, rotations=tuple(rotations))
    vars(embedded).update(_comp=graph._comp)
    check_sphere_embedding(embedded)
    return embedded


def to_ribbon(graph: AdGraph, twisted: bool = False) -> RibbonGraph:
    """Ribbon graph of an embedded AdGraph; half-edge ids are the slots
    of ``half_edges``."""
    partner, _, vertex = graph._slots
    return RibbonGraph.from_slots(map(len, graph.rotations), vertex, partner, twisted,
                                  graph._comp[1])


# -- the genus recursion ------------------------------------------------------------


def turaev_genus_graph(graph: AdGraph, rng: random.Random | None = None) -> int:
    """Turaev genus of an alternating decomposition graph, validated on
    demand by ``validate_adg``.

    Each step takes a member of a worklist, either the degree-two
    vertices or the parallel pairs as ``(u, w)`` with ``u < w``: its
    head, or ``rng.choice`` of it when ``rng`` is given; the result is
    choice-independent.  The worklists lose members by swap-pop, so the
    head is not the lowest vertex or pair; it is fixed by the input's
    edge order alone.  The recursion runs in O(E log E): each step costs
    the degree of the vertices it touches, a contraction moves the
    smaller adjacency map into the larger, and connectivity is settled
    once for the whole run (see ``_genus_recursion``).
    """
    graph = validate_adg(graph)
    return _genus_recursion(graph.edges, graph._comp, rng)


class _Worklist:
    """A set kept as a flat list, so that a choice reads ``items`` as
    is; it starts as the distinct ``items`` in their order, and removal
    swaps the last item into the hole."""

    __slots__ = ("items", "_at")

    def __init__(self, items: Iterable):
        self.items: list = list(items)
        self._at: dict = dict(zip(self.items, range(len(self.items))))

    def mark(self, item, member: bool) -> None:
        at, items = self._at, self.items
        if member:
            if item not in at:
                at[item] = len(items)
                items.append(item)
        elif item in at:
            i = at.pop(item)
            last = items.pop()
            if i < len(items):
                items[i] = last
                at[last] = i


def _pair(x: int, y: int) -> tuple[int, int]:
    return (x, y) if x < y else (y, x)


def _genus_recursion(
    edge_list: Iterable[tuple[int, int]], components: tuple[list[int], int],
    rng: random.Random | None = None,
) -> int:
    """Contract a degree-two vertex while there is one, else delete a
    parallel pair, and count the deletions whose ends stay connected.

    That count needs no connectivity test per step.  A contraction keeps
    the number of components, and a deletion raises it by one exactly
    when it disconnects the pair's ends.  The loop ends with every
    remaining vertex isolated, so the disconnecting deletions number the
    vertices left at the end minus the components of the input, and one
    union-find over the input edges, passed in as ``components``, answers
    for the whole run.
    """
    edges = list(edge_list)
    n, count = len(components[0]), components[1]
    adj: list[dict[int, int]] = [{} for _ in range(n)]  # neighbour -> multiplicity
    deg = [0] * n
    for u, w in edges:
        adj[u][w] = adj[u].get(w, 0) + 1
        adj[w][u] = adj[w].get(u, 0) + 1
        deg[u] += 1
        deg[w] += 1
    deg2 = _Worklist(u for u in range(n) if deg[u] == 2)
    pairs = _Worklist((u, w) for u in range(n)
                      for w, m in adj[u].items() if u < w and m >= 2)
    live, deletions = n, 0
    remaining = len(edges)
    while remaining:
        if deg2.items:
            v = deg2.items[0] if rng is None else rng.choice(deg2.items)
            ends = list(adj[v])  # one doubled neighbour, or two single ones
            a, b = ends[0], ends[-1]
            live -= len(ends)  # v goes, and one of a, b when they differ
            for x in ends:
                deg[x] -= adj[x].pop(v)
            pairs.mark(_pair(v, a), False)
            adj[v], deg[v] = {}, 0
            deg2.mark(v, False)
            if a != b:
                if len(adj[a]) < len(adj[b]):
                    a, b = b, a
                for y, m in adj[b].items():  # merge b into a
                    if y == a:
                        raise TuraevError(
                            "degree-two contraction created a loop; "
                            "input was not bipartite"
                        )
                    del adj[y][b]
                    pairs.mark(_pair(b, y), False)
                    m += adj[a].get(y, 0)
                    adj[a][y] = adj[y][a] = m
                    pairs.mark(_pair(a, y), m >= 2)
                deg[a] += deg[b]
                adj[b], deg[b] = {}, 0
                deg2.mark(b, False)
            deg2.mark(a, deg[a] == 2)
        elif pairs.items:
            u, w = pairs.items[0] if rng is None else rng.choice(pairs.items)
            m = adj[u][w] - 2
            if m:
                adj[u][w] = adj[w][u] = m
            else:
                del adj[u][w], adj[w][u]
            pairs.mark((u, w), m >= 2)
            for x in (u, w):
                deg[x] -= 2
                deg2.mark(x, deg[x] == 2)
            deletions += 1
        else:
            raise TuraevError(
                "no degree-two vertex and no parallel pair; "
                "input was not a valid alternating decomposition graph"
            )
        remaining -= 2
    return deletions - (live - count)


# -- graph file format -----------------------------------------------------------------

#: per-vertex lists are sized by a graph file's vertex count, so it is capped
MAX_GRAPH_VERTICES = 100_000


def _ints(tokens: list[str], lineno: int, line: str) -> list[int]:
    try:
        return integers(tokens)
    except ValueError:
        raise MalformedLineError(lineno, line, "expected integers") from None


def parse_graph_file(text: str) -> AdGraph:
    """Parse the graph file format.

    ``v N`` exactly once, then ``e i j`` lines with 1-based endpoints, then
    optional ``rot i : k1 k2 ...`` lines, at most one per vertex, giving
    the cyclic edge order at vertex i (edge indices 1-based in file order).
    """
    n = None
    edges: list[tuple[int, int]] = []
    rot_lines: dict[int, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(":", " : ").split()
        if parts[0] == "v" and len(parts) == 2:
            if n is not None:
                raise MalformedLineError(lineno, line, "second 'v' line")
            (n,) = _ints(parts[1:], lineno, line)
            if not 0 <= n <= MAX_GRAPH_VERTICES:
                raise MalformedLineError(
                    lineno, line, f"vertex count outside 0..{MAX_GRAPH_VERTICES}")
        elif parts[0] == "e" and len(parts) == 3:
            if n is None:
                raise MalformedLineError(lineno, line, "edge before 'v' line")
            i, j = _ints(parts[1:], lineno, line)
            if i == j:
                raise HasLoopError(f"line {lineno}: loop at vertex {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise MalformedLineError(lineno, line, "vertex out of range")
            edges.append((min(i, j) - 1, max(i, j) - 1))
        elif parts[0] == "rot" and len(parts) >= 3 and parts[2] == ":":
            v, *rot = _ints(parts[1:2] + parts[3:], lineno, line)
            if n is None or not 1 <= v <= n:
                raise MalformedLineError(lineno, line, "rotation of an unknown vertex")
            if v - 1 in rot_lines:
                raise MalformedLineError(lineno, line, f"second rotation of vertex {v}")
            rot_lines[v - 1] = tuple(e - 1 for e in rot)
        else:
            raise MalformedLineError(lineno, line, "unknown directive")
    if n is None:
        raise MalformedLineError(0, text[:30], "missing 'v' line")
    if not rot_lines:
        return AdGraph(n, tuple(edges))
    graph = AdGraph(
        n, tuple(edges), rotations=tuple(rot_lines.get(v, ()) for v in range(n))
    )
    graph._slots  # each edge once at each endpoint, kept for validation
    return graph


def write_graph_file(graph: AdGraph) -> str:
    lines = [f"v {graph.n}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in graph.edges]
    if graph.rotations is not None:
        for v, rot in enumerate(graph.rotations):
            if rot:
                lines.append(f"rot {v + 1} : " + " ".join(str(e + 1) for e in rot))
    return "\n".join(lines) + "\n"
