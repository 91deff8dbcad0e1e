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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import networkx as nx

from .errors import (
    HasLoopError,
    MalformedLineError,
    NotBipartiteError,
    NotEmbeddedError,
    NotPlanarError,
    NotSphericalError,
    NotValidatedError,
    OddDegreeError,
    TuraevError,
)
from . import perm
from .ribbon import RibbonGraph


@dataclass(frozen=True)
class AdGraph:
    """Loopless multigraph, optionally annotated with a bipartition and a
    per-component sphere embedding.

    ``edges`` keeps one entry per parallel copy, each stored as
    ``(min, max)`` whatever order it is given in.  ``rotations`` gives, for
    each vertex, the cyclic counterclockwise order of incident edge
    indices; each edge must sit once at each of its two endpoints, which
    ``half_edges`` checks.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    bipartition: tuple[int, ...] | None = None
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
        return perm.groups(*perm.components(self.n, self.edges))

    def component_count(self) -> int:
        return len(self.components())

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
    """Check even degrees, bipartiteness, and per-component planarity.

    A graph carrying a rotation system is proved planar by its own
    embedding (``check_sphere_embedding``).  Otherwise, when some
    component has five or more vertices, ``planar_rotations`` runs the
    planarity search and the graph comes back carrying the embedding it
    found; a graph of smaller components (each simplifies to a subgraph
    of K4) is not searched and carries none.  Returns the graph
    annotated with a bipartition.  Loops are already rejected at
    construction.
    """
    for v, d in enumerate(graph.degrees()):
        if d % 2:
            raise OddDegreeError(v, d)
    graph = replace(graph, bipartition=find_bipartition(graph))
    if graph.rotations is not None:
        check_sphere_embedding(graph)
    elif any(len(comp) > 4 for comp in graph.components()):
        graph = replace(graph, rotations=planar_rotations(graph))
    return graph


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
    vertex: list[int] = []
    succ: list[int] = []
    slots: dict[int, list[int]] = {}
    for v, rot in enumerate(graph.rotations):
        base = len(vertex)
        for i, e in enumerate(rot):
            slots.setdefault(e, []).append(base + i)
            vertex.append(v)
            succ.append(base + (i + 1) % len(rot))
    partner = [0] * len(vertex)
    for e, ends in enumerate(graph.edges):
        occ = slots.pop(e, [])
        if sorted(vertex[h] for h in occ) != list(ends):
            raise NotEmbeddedError(
                f"edge {e} {ends} sits at vertices "
                f"{sorted(vertex[h] for h in occ)} in the rotation system"
            )
        a, b = occ
        partner[a], partner[b] = b, a
    if slots:
        raise NotEmbeddedError(
            f"rotation system lists unknown edges {sorted(slots)}"
        )
    return partner, [succ[p] for p in partner], vertex


def check_sphere_embedding(graph: AdGraph) -> None:
    """Euler check V - E + F = 2 on every component; a failing component
    raises ``NotSphericalError``, whatever its own planarity."""
    _, face_step, vertex = half_edges(graph)
    comp, k = perm.components(graph.n, graph.edges)
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
    nodes: Iterable[int], pairs: Iterable[tuple[int, int]]
) -> nx.PlanarEmbedding | None:
    """The planarity search: networkx's left-right test on the simple
    graph with vertices ``nodes`` and edges ``pairs``.  Returns
    networkx's embedding, or ``None`` when the graph is not planar.
    Every planarity question in ``turaevgenus`` comes here."""
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(pairs)
    ok, emb = nx.check_planarity(g)
    return emb if ok else None


def planar_rotations(graph: AdGraph) -> tuple[tuple[int, ...], ...]:
    """Compute a sphere rotation system from a planarity certificate.

    ``planar_embedding`` embeds the simplification of each component with
    two or more vertices, and raises ``NotPlanarError`` for the first
    that is not planar; parallel copies are then bundled next to each
    other, ascending at the lower endpoint and descending at the other,
    which closes each extra copy into a bigon face.
    """
    by_pair: dict[tuple[int, int], list[int]] = {}
    for i, e in enumerate(graph.edges):
        by_pair.setdefault(e, []).append(i)
    comp, k = perm.components(graph.n, by_pair)
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
        for v in members:
            rot: list[int] = []
            for w in emb.neighbors_cw_order(v):
                bundle = by_pair[_pair(v, w)]
                rot.extend(bundle if v < w else reversed(bundle))
            rotations[v] = tuple(rot)
    check_sphere_embedding(replace(graph, rotations=tuple(rotations)))
    return tuple(rotations)


def to_ribbon(graph: AdGraph, twisted: bool = False) -> RibbonGraph:
    """Ribbon graph of an embedded AdGraph; half-edge ids are the slots
    of ``half_edges``."""
    partner, _, _ = half_edges(graph)
    vertices, base = [], 0
    for rot in graph.rotations:
        vertices.append(tuple(range(base, base + len(rot))))
        base += len(rot)
    edges = tuple((h, p, twisted) for h, p in enumerate(partner) if h < p)
    return RibbonGraph(tuple(vertices), edges)


# -- the genus recursion ------------------------------------------------------------


class _FirstChoice:
    """Deterministic choice: the head of the worklist.

    The worklists lose members by swap-pop, so the head is not the lowest
    vertex or pair; it is fixed by the input's edge order alone.
    """

    def pick(self, options):
        return options[0]


class RandomChoice:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def pick(self, options):
        return options[self.rng.randrange(len(options))]


def turaev_genus_graph(graph: AdGraph, chooser=None) -> int:
    """Turaev genus of a validated alternating decomposition graph.

    ``chooser.pick(options)`` is handed a worklist, either the degree-two
    vertices or the parallel pairs as ``(u, w)`` with ``u < w``, and
    returns one member; the result is choice-independent.  The recursion
    runs in O(E log E): each step costs the degree of the vertices it
    touches, a contraction moves the smaller adjacency map into the
    larger, and connectivity is settled once for the whole run (see
    ``_genus_recursion``).
    """
    if graph.bipartition is None:
        raise NotValidatedError("call validate_adg first")
    return _genus_recursion(graph.edges, chooser or _FirstChoice())


class _Worklist:
    """A set kept as a flat list, so that ``items`` is handed to the
    chooser as is; removal swaps the last item into the hole."""

    __slots__ = ("items", "_at")

    def __init__(self):
        self.items: list = []
        self._at: dict = {}

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


def _genus_recursion(edge_list: Iterable[tuple[int, int]], chooser) -> int:
    """Contract a degree-two vertex while there is one, else delete a
    parallel pair, and count the deletions whose ends stay connected.

    That count needs no connectivity test per step.  A contraction keeps
    the number of components, and a deletion raises it by one exactly
    when it disconnects the pair's ends.  The loop ends with every
    remaining vertex isolated, so the disconnecting deletions number the
    vertices left at the end minus the components of the input, and one
    union-find over the input edges answers for the whole run.
    """
    edges = list(edge_list)
    n = 1 + max((max(e) for e in edges), default=0)
    adj: list[dict[int, int]] = [{} for _ in range(n)]  # neighbour -> multiplicity
    deg = [0] * n
    for u, w in edges:
        adj[u][w] = adj[u].get(w, 0) + 1
        adj[w][u] = adj[w].get(u, 0) + 1
        deg[u] += 1
        deg[w] += 1
    deg2, pairs = _Worklist(), _Worklist()
    for u in range(n):
        deg2.mark(u, deg[u] == 2)
        for w, m in adj[u].items():
            if u < w and m >= 2:
                pairs.mark((u, w), True)
    live, deletions = n, 0
    remaining = len(edges)
    while remaining:
        if deg2.items:
            v = chooser.pick(deg2.items)
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
            u, w = chooser.pick(pairs.items)
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
    return deletions - (live - perm.components(n, edges)[1])


# -- graph file format -----------------------------------------------------------------

#: per-vertex lists are sized by a graph file's vertex count, so it is capped
MAX_GRAPH_VERTICES = 100_000


def _ints(tokens: list[str], lineno: int, line: str) -> list[int]:
    try:
        return [int(t) for t in tokens]
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
    half_edges(graph)  # each edge once at each endpoint
    return graph


def write_graph_file(graph: AdGraph) -> str:
    lines = [f"v {graph.n}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in graph.edges]
    if graph.rotations is not None:
        for v, rot in enumerate(graph.rotations):
            if rot:
                lines.append(f"rot {v + 1} : " + " ".join(str(e + 1) for e in rot))
    return "\n".join(lines) + "\n"
