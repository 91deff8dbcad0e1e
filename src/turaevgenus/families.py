"""Graph families, moves, reducedness, isomorphism, and classification.

The constructors build the named families of alternating decomposition
graphs: doubled paths and cycles, doubled theta graphs, the two
K4-based genus-two families, and the genus-zero shapes (doubled trees,
four-cycles with legs, and the two-sum of K4-minus-an-edge pieces).
Family graphs are plain values, with no rotations and no bipartition,
and are not necessarily bipartite: bipartiteness depends on the
parameters.  ``turaev_genus_graph``, ``embed_planar`` and
``realize_diagram`` validate them first, which checks bipartiteness.

The form table.  ``FAMILIES`` gives each family that ``classify_genus``
names, doubled trees apart, its builder, the parameters of its minimal
members and a printed map.  Each minimal member is a fixed point of
``canonical_contract``, and contraction only shortens doubled paths, so
a graph is in a family exactly when its contraction has the canonical
form of one of the family's minimal members.  ``family_of`` turns the
contraction's canonical search into the family and its parameters;
``classify_genus`` and ``census.census`` both call it, and neither
searches again.

Reading the parameters.  ``contract_with_lengths`` gives each bundle of
the contraction the lengths of the doubled paths, or of the doubled
cycle, behind it; the canonical labelling carries them onto the form as
a vector.  Expanding the bundles back inverts the contraction, so form
and vector determine the graph up to isomorphism, and an isomorphism
between two graphs moves their vectors by an automorphism of the form:
the orbit under the search's generators is an invariant, and
``family_of`` takes its greatest member (McKay, *Isomorph-free
exhaustive generation*, 1998).  A builder lays one doubled path or cycle
per nonzero parameter on a fixed core, so each parameter lands on one
slot of the vector, up to an automorphism of the form; ``_forms`` finds
the slots on a probe member.  Read through the slots, any member of the
orbit gives parameters that build an isomorphic graph; parallel paths
are interchangeable, so the order inside a bundle does not matter.  The
printed map picks one such tuple: ``sorted``, or for ``c4_legs`` the
greatest rotation or reflection.  No answer is rebuilt at run time; the
tests rebuild them all.

The genus-zero gate.  Contraction deletes the sites, which have degree
four, and adds vertices of degree four only, so it keeps the number of
isolated vertices and of degree-two vertices.  A graph with a site
contracts to at least two vertices, so only the single vertex contracts
to the single vertex.  Every other genus-zero minimal member has no
isolated vertex and exactly four vertices of degree two: the ends of two
doubled edges, or, around a four-cycle or a two-sum, each bare corner or
junction and the end of each leg of length one.  So a genus-zero graph
with an isolated vertex, other than the single vertex, or with more than
four degree-two vertices matches nothing, and ``classify_genus`` does
not contract it.  Doubled trees are recognized directly, on the
canonical form; the docstring of ``recognize_doubled_tree`` shows why
its parent list needs no check.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, NamedTuple, Sequence

from .adgraph import MAX_GRAPH_VERTICES, AdGraph, turaev_genus_graph, validate_adg
from .errors import (
    BadParametersError,
    ClassificationFailureError,
    InvalidSiteError,
    MalformedLineError,
    integer,
)
from .perm import components, fundamental_cycles, groups, orbit, pair_actions

# ---------------------------------------------------------------------------
# constructors


def _with_doubled_paths(n: int, edges: Sequence[tuple[int, int]],
                        paths: Iterable[tuple[int, int | None, int]]) -> AdGraph:
    """The graph on vertices 0..n-1 with ``edges``, plus one doubled path
    per ``(u, v, length)`` laid through fresh vertices, numbered in
    order: from u to v, or a pendant leg at u when v is None."""
    out = list(edges)
    for u, v, length in paths:
        prev = u
        for step in range(length):
            if v is not None and step == length - 1:
                nxt = v
            else:
                nxt, n = n, n + 1
            out += [(prev, nxt)] * 2
            prev = nxt
    return AdGraph(n, tuple(out))


def doubled_path(k: int) -> AdGraph:
    """k+1 vertices in a chain, every edge doubled; k = 0 is a vertex."""
    if k < 0:
        raise BadParametersError("doubled path length must be >= 0")
    return _with_doubled_paths(1, (), [(0, None, k)])


def doubled_cycle(i: int) -> AdGraph:
    """Doubled cycle of length i >= 2 (i = 1 would need loops): a doubled
    path from vertex 0 back to itself."""
    if i < 2:
        raise BadParametersError("doubled cycle length must be >= 2")
    return _with_doubled_paths(1, (), [(0, 0, i)])


def doubled_theta(i: int, j: int, k: int) -> AdGraph:
    """Doubled version of the graph made of two junction vertices tied by
    three paths of lengths i, j, k (identify two paths of length k in the
    cycles of lengths i+k and j+k)."""
    if min(i, j, k) < 1:
        raise BadParametersError("theta path lengths must be >= 1")
    return _with_doubled_paths(2, (), [(0, 1, i), (0, 1, j), (0, 1, k)])


def _k4_with_paths(paths: Sequence[tuple[int, int, int]]) -> AdGraph:
    """K4 on vertices 0..3 with each listed edge (u, v), u < v, replaced
    by a doubled path (u, v, length)."""
    replaced = {(u, v) for u, v, _ in paths}
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return _with_doubled_paths(4, [e for e in k4 if e not in replaced], paths)


def k4_doubled_paths(p: int, q: int) -> AdGraph:
    """K4 with two non-adjacent edges replaced by doubled paths."""
    if p < 1 or q < 1:
        raise BadParametersError("path lengths must be >= 1")
    return _k4_with_paths([(0, 1, p), (2, 3, q)])


def k4_one_path(p: int) -> AdGraph:
    """K4 with a single edge replaced by a doubled path of length p."""
    if p < 1:
        raise BadParametersError("path length must be >= 1")
    return _k4_with_paths([(0, 1, p)])


def k4_two_sum(p: int, q: int) -> AdGraph:
    """Two-sum of K4(p) and K4(q) along the edge opposite the paths."""
    g1, g2 = k4_one_path(p), k4_one_path(q)
    return two_sum(g1, g1.edges.index((2, 3)), g2, g2.edges.index((2, 3)))


def c4_legs(p: int, q: int, r: int, s: int) -> AdGraph:
    """Four-cycle with pendant doubled paths of the given lengths
    attached at its vertices in cyclic order."""
    if min(p, q, r, s) < 0:
        raise BadParametersError("leg lengths must be >= 0")
    return _with_doubled_paths(
        4, [(0, 1), (1, 2), (2, 3), (0, 3)],
        [(corner, None, length) for corner, length in enumerate((p, q, r, s))],
    )


def k4_tilde(p: int, q: int) -> AdGraph:
    """K4 minus one edge, with pendant doubled paths of lengths p and q
    at the two vertices that lost the edge (vertices 2 and 3)."""
    if p < 0 or q < 0:
        raise BadParametersError("leg lengths must be >= 0")
    return _with_doubled_paths(
        4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], [(2, None, p), (3, None, q)]
    )


def k4_tilde_two_sum(p: int, q: int, r: int, s: int) -> AdGraph:
    """Two-sum of K4~(p, q) and K4~(r, s) along their hub edges (0, 1)."""
    g1, g2 = k4_tilde(p, q), k4_tilde(r, s)
    return two_sum(g1, g1.edges.index((0, 1)), g2, g2.edges.index((0, 1)))


def doubled_tree(parents: Sequence[int]) -> AdGraph:
    """Doubled tree from a parent list: vertex i+1 hangs under
    parents[i] (so a tree on len(parents)+1 vertices)."""
    edges: list[tuple[int, int]] = []
    for i, p in enumerate(parents, start=1):
        if not 0 <= p < i:
            raise BadParametersError("parents[i] must be an earlier vertex")
        edges += [(p, i)] * 2
    return AdGraph(len(parents) + 1, tuple(edges))


def isolated_vertices(n: int) -> AdGraph:
    if n < 0:
        raise BadParametersError("need n >= 0 vertices")
    return AdGraph(n, ())


# ---------------------------------------------------------------------------
# moves


def _remove_vertex(n: int, edges: list[tuple[int, int]], gone: int) -> AdGraph:
    relabel = [v - (v > gone) for v in range(n)]
    return AdGraph(n - 1, tuple((relabel[u], relabel[v]) for u, v in edges))


def doubled_pendant(graph: AdGraph, v: int) -> AdGraph:
    if not 0 <= v < graph.n:
        raise InvalidSiteError(f"vertex {v} out of range")
    w = graph.n
    return AdGraph(graph.n + 1, graph.edges + ((v, w), (v, w)))


def two_path_extend(graph: AdGraph, v: int, edge_set_a: Iterable[int]) -> AdGraph:
    """Split vertex v into v and a new vertex, route the edge sets A and
    its complement to the two halves, and bridge them through a fresh
    degree-two vertex.  Both sets must have odd size."""
    inc = [i for i, e in enumerate(graph.edges) if v in e]
    listed = list(edge_set_a)
    a = set(listed)
    if len(a) != len(listed):
        raise InvalidSiteError("edge set A lists an edge more than once")
    if not a <= set(inc):
        raise InvalidSiteError("edge set A must consist of edges at v")
    b = [i for i in inc if i not in a]
    if len(a) % 2 == 0 or len(b) % 2 == 0:
        raise InvalidSiteError("both edge sets must have odd size")
    v2 = graph.n
    v3 = graph.n + 1
    edges = []
    for i, (x, y) in enumerate(graph.edges):
        if i in a or i not in inc:
            edges.append((x, y))
        else:
            edges.append((v2, y) if x == v else (x, v2))
    edges += [(v, v3), (v2, v3)]
    return AdGraph(graph.n + 2, tuple(edges))


def one_sum_components(graph: AdGraph, v1: int, v2: int) -> AdGraph:
    """Identify two vertices that lie in different components."""
    if not (0 <= v1 < graph.n and 0 <= v2 < graph.n):
        raise InvalidSiteError(f"one-sum vertex out of range 0..{graph.n - 1}")
    comp_of = components(graph.n, graph.edges)[0]
    if v1 == v2 or comp_of[v1] == comp_of[v2]:
        raise InvalidSiteError("one-sum vertices must lie in different components")
    lo, hi = min(v1, v2), max(v1, v2)
    edges = [
        (lo if x == hi else x, lo if y == hi else y) for x, y in graph.edges
    ]
    return _remove_vertex(graph.n, edges, hi)


def two_sum(g1: AdGraph, e1: int, g2: AdGraph, e2: int) -> AdGraph:
    """Glue g2 onto g1 by identifying the endpoints of edge e1 with the
    endpoints of edge e2 (low with low), then delete the glued edge."""
    u1, v1 = g1.edges[e1]
    u2, v2 = g2.edges[e2]
    mapping = {}
    nxt = g1.n
    for w in range(g2.n):
        if w == u2:
            mapping[w] = u1
        elif w == v2:
            mapping[w] = v1
        else:
            mapping[w] = nxt
            nxt += 1
    edges = [e for i, e in enumerate(g1.edges) if i != e1]
    for i, (x, y) in enumerate(g2.edges):
        if i == e2:
            continue
        edges.append((mapping[x], mapping[y]))
    return AdGraph(nxt, tuple(edges))


def doubled_path_contract(graph: AdGraph, v: int, neighbor: int) -> AdGraph:
    """Contract the doubled pair between interior vertex v and one of its
    two neighbors, merging v into the neighbor."""
    if v not in contractible_sites(graph):
        raise InvalidSiteError("vertex is not an interior doubled-path vertex")
    pair = [i for i, e in enumerate(graph.edges) if set(e) == {v, neighbor}]
    if len(pair) != 2:
        raise InvalidSiteError(f"no doubled pair between {v} and {neighbor}")
    edges = [(neighbor if x == v else x, neighbor if y == v else y)
             for i, (x, y) in enumerate(graph.edges) if i not in pair]
    return _remove_vertex(graph.n, edges, v)


def doubled_path_extend(graph: AdGraph, u: int, v: int) -> AdGraph:
    """Lengthen the doubled path through the parallel pair (u, v) by
    inserting a fresh interior vertex."""
    pair = [i for i, e in enumerate(graph.edges) if set(e) == {u, v}]
    if len(pair) < 2:
        raise InvalidSiteError(f"no parallel pair between {u} and {v}")
    keep = [e for i, e in enumerate(graph.edges) if i not in pair[:2]]
    w = graph.n
    return AdGraph(graph.n + 1, tuple(keep + [(u, w), (u, w), (v, w), (v, w)]))


# ---------------------------------------------------------------------------
# canonical contraction and reducedness


def contractible_sites(graph: AdGraph) -> list[int]:
    """Interior doubled-path vertices in increasing order: degree 4 and
    two doubled neighbours, read off the multiplicity map."""
    doubled = [0] * graph.n
    for (u, v), m in graph.multiplicity().items():
        if m == 2:
            doubled[u] += 1
            doubled[v] += 1
    deg = graph.degrees()
    return [v for v in range(graph.n) if deg[v] == 4 and doubled[v] == 2]


def canonical_contract(graph: AdGraph) -> AdGraph:
    """``contract_with_lengths`` without the lengths."""
    return contract_with_lengths(graph)[0]


def contract_with_lengths(
    graph: AdGraph,
) -> tuple[AdGraph, dict[tuple[int, int], tuple[int, ...]]]:
    """Shrink every maximal doubled path, the doubled pairs (multiplicity
    exactly two) joined at the sites, to one doubled edge, in one pass,
    and give the lengths behind each bundle of the result.

    The sites go and the other vertices keep their order.  A path from a
    to b != a becomes the doubled pair (a, b); a path that returns to a,
    a fresh vertex joined to a by four edges; a doubled cycle of sites, a
    doubled two-cycle.  A graph with no site keeps its vertices and
    edges as they are.  Contracting one site at a time, in any order,
    gives an isomorphic graph.  Four edges at a vertex of degree four
    are a doubled cycle and get its length, 2 if they were in the input
    (no other path ends there: that end would be a site).  Any other
    bundle of 2k or 2k + 1 edges gets the sorted lengths of k paths:
    those contracted onto it, then input pairs of length one."""
    sites = set(contractible_sites(graph))
    label = {v: i for i, v in enumerate(v for v in range(graph.n)
                                         if v not in sites)}
    n = len(label)
    edges = [(label[u], label[v]) for u, v in graph.edges
             if u in label and v in label]
    pairs = [e for e, m in graph.multiplicity().items() if m == 2]
    first: dict[int, int] = {}  # the first pair met at each site
    joins = [(first.setdefault(v, i), i)
             for i, e in enumerate(pairs) for v in e if v in sites]
    longer: dict[tuple[int, int], list[int]] = {}  # the paths through a site
    for path in groups(*components(len(pairs), joins)):
        if len(path) == 1:  # no site on it: kept above
            continue
        ends = sorted(label[v] for i in path for v in pairs[i] if v not in sites)
        if len(set(ends)) == 2:
            pair = tuple(ends)
            edges += [pair] * 2
        else:  # closed: a fresh vertex, two for a cycle of sites
            pair = (ends[0], n) if ends else (n, n + 1)
            edges += [pair] * 4
            n = pair[1] + 1
        longer.setdefault(pair, []).append(len(path))
    contracted = AdGraph(n, tuple(edges))
    deg = contracted.degrees()
    lengths = {}
    for (u, v), m in contracted.multiplicity().items():
        ks = longer.get((u, v), [])
        if m == 4 and 4 in (deg[u], deg[v]):
            lengths[(u, v)] = tuple(ks) or (2,)
        elif m > 1:
            lengths[(u, v)] = tuple(sorted(ks + [1] * (m // 2 - len(ks))))
    return contracted, lengths


def is_reduced(graph: AdGraph) -> bool:
    """A single vertex, or no isolated vertex and every component
    3-edge-connected, from the edges' fundamental-cycle labels
    (``perm.fundamental_cycles``).  An edge set is a cut exactly when its
    labels XOR to 0, so an edge is a bridge exactly when its label is 0,
    and two edges that are not bridges form a cut exactly when their
    labels are equal.  Edges in different components have disjoint label
    supports, so one pass over the whole graph decides every component,
    in O(E * nu) bit operations, as a label holds up to nu bits (the
    nullity): 0.17 s at 24,000 edges of a doubled theta, 51 s at 192,000."""
    if graph.n == 1 and not graph.edges:
        return True
    if 0 in graph.degrees():
        return False
    labels, _ = fundamental_cycles(graph.n, graph.edges)
    return 0 not in labels and len(set(labels)) == len(labels)


# ---------------------------------------------------------------------------
# multigraph isomorphism


def isomorphic(g1: AdGraph, g2: AdGraph) -> tuple[bool, list[int] | None]:
    """Multigraph isomorphism respecting multiplicities, decided by equal
    canonical forms.  The witness sends vertex v of ``g1`` to the vertex
    of ``g2`` with v's canonical label, so ``g1.relabeled(witness)`` has
    the edge multiset of ``g2``.  Only ``n`` and ``edges`` are read:
    rotations and bipartitions are ignored."""
    form1, label1, _ = canonical_search(g1)
    form2, label2, _ = canonical_search(g2)
    if form1 != form2:
        return False, None
    at = [0] * g2.n
    for w, c in enumerate(label2):
        at[c] = w
    return True, [at[c] for c in label1]


def canonical_form(graph: AdGraph) -> tuple:
    """Complete isomorphism invariant of a multigraph: ``(n, edges)``, the
    least sorted edge tuple over the relabellings the search reaches."""
    return canonical_search(graph)[0]


def canonical_search(graph: AdGraph) -> tuple[tuple, list[int], list[list[int]]]:
    """The canonical form, the labelling that produces it (vertex v
    becomes ``labelling[v]`` in the form's edge tuple) and generators of
    the automorphism group, each a vertex permutation ``g`` (vertex v
    goes to ``g[v]``).

    Individualisation-refinement in the manner of McKay and Piperno,
    *Practical graph isomorphism II* (2014).  Colour refinement
    (``_refine``) counts edge multiplicities; a vertex's colour is the
    first position of its cell in the ordered partition, so a discrete
    partition is a relabelling.  Each node branches on its first
    non-singleton cell, or, when that cell lies inside one twin class,
    makes it discrete in one step.  Twins (equal multiplicity
    neighbourhoods) and the automorphisms found at equal leaves prune
    branches that an automorphism fixing the individualised path maps
    onto an explored one; such branches hold the same leaves, so the
    least one is unchanged.  A leaf equal to the first or the best leaf
    also abandons its whole subtree below the node where its path leaves
    that leaf's path.

    The generators are the automorphisms found at equal leaves and, for
    each twin class c_0, c_1, ..., the transpositions (c_0 c_j).  Twins
    with equal neighbourhoods, and adjacent twins with equal
    neighbourhoods apart from each other, are each an equivalence and no
    vertex has both kinds, so every transposition inside a class is an
    automorphism.  A search that never branched has a discrete refined
    unit partition, hence a trivial group, and returns no generator.

    They generate Aut(G) (McKay, *Practical graph isomorphism*, 1981).
    Let H be the group they generate, b_1, ..., b_k the path of the first
    leaf, nu_i the node of b_1 ... b_i, and G_i the automorphisms that
    fix b_1, ..., b_{i-1}.  Refinement commutes with automorphisms, so
    one that fixes a node's path maps the node's subtree onto itself and
    keeps leaf certificates.

    (a) ``_refine`` never moves a singleton, and the sub-cells of a cell
    it splits take that cell's positions in key order, so an
    individualised vertex keeps the position ``_individualise`` gave it:
    the first of its cell, or the i-th for the i-th vertex of a cell
    made discrete in one step.  Paths part only at a branching node.
    The automorphism recorded where leaf l equals a reference leaf l'
    (the first or the best) therefore fixes the paths' common prefix and
    sends the vertex l' individualised where the paths diverge onto the
    one l did.

    (b) At any node, a skipped child is the image of an explored one
    under recorded automorphisms that fix the node's path and twin
    transpositions inside the cell, which fix the path too since its
    vertices are singletons; all of them lie in H.  A cell inside one
    twin class is made discrete in vertex order; every other order is
    the image of that one under twin transpositions inside the cell, so
    its leaves are automorphic to the ones explored.

    (c) Let mu below nu_{i-1}, off the first path, have a leaf with the
    first certificate in its subtree.  Then the search of mu's subtree
    meets a leaf equal to a reference leaf outside it.  At a leaf, the
    reference is the first leaf.  At an inner node, a child's search
    that returns above mu has met such a leaf.  Otherwise take the first
    explored child x whose subtree holds a leaf with the first
    certificate; by (b) one exists.  By induction x's search meets a
    leaf equal to a reference outside x's subtree.  Were the reference
    under an earlier child x', the automorphism recorded there fixes
    mu's path and sends x' to x by (a), so its inverse puts a leaf with
    the first certificate under x', against the choice of x.

    (d) From i = k down to 1, G_i <= H.  G_{k+1} is trivial: it fixes
    the discrete partition of nu_k.  Where b_i lies in a cell made
    discrete in one step, G_i moves b_i only within the rest of that
    cell, its twins, so for g in G_i a twin transposition t in H that
    fixes b_1, ..., b_{i-1} has t(b_i) = g(b_i), and t^-1 g lies in
    G_{i+1} <= H.  Otherwise, while nu_{i-1} runs, every leaf met lies
    below it, so no search returns above it.  Take the explored children
    of nu_{i-1} in b_i's G_i-orbit in the order explored.  Each one v
    after b_i meets, by (c), a leaf equal to a reference outside v's
    subtree, so under an earlier child x; the automorphism recorded
    there fixes b_1, ..., b_{i-1} and sends x to v by (a), so it lies in
    K_i, the intersection of H and G_i.  Then x is in the orbit too, and
    by induction K_i moves b_i onto x, hence onto v.  With (b), the
    K_i-orbit of b_i is its G_i-orbit.  So for g in G_i some h in K_i
    has h(b_i) = g(b_i), and h^-1 g lies in G_{i+1} <= H (Schreier).
    """
    n = graph.n
    edges = graph.edges
    nbrs = _weighted_nbrs(graph)
    root = _refine(nbrs, [0] * n, [0] if n else [])
    twins = _twins(nbrs) if len(set(root)) < n else []
    twin_of = [-1] * n  # each vertex's twin class, -1 for none
    for i, cls in enumerate(twins):
        for v in cls:
            twin_of[v] = i
    gens: list[list[int]] = []
    first: list = []  # [cert, colours, path] of the first leaf
    best: list = []   # the same for the least leaf so far

    def leaf(col: list[int], path: list[int]) -> int:
        cert = tuple(sorted(
            (col[u], col[v]) if col[u] < col[v] else (col[v], col[u])
            for u, v in edges
        ))
        if not first:
            first.extend((cert, col, path))
            best.extend((cert, col, path))
            return len(path) - 1
        for ref_cert, ref_col, ref_path in (first, best):
            if cert == ref_cert:
                at = [0] * n
                for v in range(n):
                    at[col[v]] = v
                gens.append([at[ref_col[u]] for u in range(n)])
                k = 0
                while path[k] == ref_path[k]:
                    k += 1
                return k
        if cert < best[0]:
            best[:] = (cert, col, path)
        return len(path) - 1

    def search(col: list[int], path: list[int]) -> int:
        depth = len(path)
        start = _first_split(col)
        if start is None:
            return leaf(col, path)
        cell = [v for v in range(n) if col[v] == start]
        twin = twin_of[cell[0]]
        if twin >= 0 and all(twin_of[v] == twin for v in cell):
            choices = [cell]
        else:
            choices = [[v] for v in cell]
        explored: list[int] = []
        orbit: list[int] = []
        seen_gens = -1
        for chosen in choices:
            v = chosen[0]
            if explored:
                if seen_gens != len(gens):
                    seen_gens = len(gens)
                    orbit = _orbits_fixing(n, path, gens, cell, twin_of)
                if any(orbit[v] == orbit[u] for u in explored):
                    continue
            explored.append(v)
            child = _individualise(col, chosen)
            back = search(_refine(nbrs, child, range(start, start + len(chosen))),
                          path + chosen)
            if back < depth:
                return back
        return depth - 1

    search(root, [])
    identity = list(range(n))
    for cls in twins:
        for v in cls[1:]:
            swap = identity[:]  # a copy shares the int objects
            swap[cls[0]], swap[v] = v, cls[0]
            gens.append(swap)
    return (n, best[0]), best[1], gens


def _weighted_nbrs(graph: AdGraph) -> list[tuple[tuple[int, int], ...]]:
    """Each vertex's pairs (neighbour, (n + 1) ** multiplicity).  At most
    n neighbours share a multiplicity, so a vertex's sum of weights into
    a vertex set is the base-(n + 1) number whose digits count its
    neighbours there by multiplicity: it determines, and is determined
    by, the multiset of multiplicities into the set."""
    base = graph.n + 1
    adj: list[dict[int, int]] = [dict() for _ in range(graph.n)]
    for u, v in graph.edges:
        adj[u][v] = adj[u].get(v, 1) * base
        adj[v][u] = adj[v].get(u, 1) * base
    return [tuple(a.items()) for a in adj]


def _refine(nbrs: list[tuple[tuple[int, int], ...]], col: list[int],
            queue: Iterable[int]) -> list[int]:
    """The coarsest equitable refinement of the ordered partition
    ``col``, made in place and returned: afterwards the vertices of a
    cell have equal multisets of edge multiplicities into each cell.  A
    vertex's colour is the first position of its cell.

    Splitter-queue refinement, as in nauty and Traces (McKay and
    Piperno 2014; Paige and Tarjan, *Three partition refinement
    algorithms*, 1987).  ``queue`` holds the colours of the cells to
    split by; ``col`` must already be equitable with respect to every
    other cell.  Splitters leave the queue first in, first out.  Each
    vertex adjacent to the splitter W gets as key the sum of its weights
    into W (``nbrs`` as from ``_weighted_nbrs``), which encodes its
    multiset of multiplicities into W.  Then, in position order, each
    non-singleton cell holding such a vertex splits into its members not
    adjacent to W, followed by the others grouped by key in key order,
    and these sub-cells take the cell's positions in that order.  A
    singleton never moves.

    The sub-cells of a queued cell are all queued; of any other cell,
    all but the first largest.  The skip is sound: the partition is
    already stable with respect to the old cell, and a vertex's multiset
    into the skipped sub-cell is its multiset into the old cell less its
    multisets into the others, which are queued.  So every split is
    forced, the cells as sets are the coarsest equitable refinement, and
    their order depends only on the coloured graph, not on the vertex
    numbering.

    Cost O(m log n) after O(n) set-up.  Between two splitters that hold
    a vertex, a cell holding it was split while unqueued and a sub-cell
    of at most half its size queued, so each neighbour list is read
    O(log n) times; a split moves only the members adjacent to W."""
    n = len(col)
    order = sorted(range(n), key=col.__getitem__)
    pos = [0] * n
    end = [0] * n  # end[c]: one past the last position of the cell at c
    for i, v in enumerate(order):
        pos[v] = i
        end[col[v]] = i + 1
    cells = n - end.count(0)
    queue = deque(queue)
    queued = [False] * n
    for c in queue:
        queued[c] = True
    while queue and cells < n:
        splitter = queue.popleft()
        queued[splitter] = False
        into: dict[int, int] = {}
        for v in order[splitter:end[splitter]]:
            for w, m in nbrs[v]:
                into[w] = into.get(w, 0) + m
        touched: dict[int, list[int]] = {}
        for w in into:
            c = col[w]
            if end[c] - c > 1:
                touched.setdefault(c, []).append(w)
        for c in sorted(touched):
            members = touched[c]
            keyed: dict[int, list[int]] = {}
            for w in members:
                keyed.setdefault(into[w], []).append(w)
            stop = end[c]
            mid = stop - len(members)  # the members go to [mid, stop)
            if mid == c and len(keyed) == 1:
                continue
            # the others in [mid, stop) take the slots the members leave
            strays = [order[p] for p in range(mid, stop) if order[p] not in into]
            for w, p in zip(strays, [pos[w] for w in members if pos[w] < mid]):
                order[p], pos[w] = w, p
            starts = [c] if mid > c else []
            end[c] = mid
            p = mid
            for key in sorted(keyed):
                start = p
                for w in keyed[key]:
                    order[p], pos[w], col[w] = w, p, start
                    p += 1
                starts.append(start)
                end[start] = p
            cells += len(starts) - 1
            if queued[c]:
                del starts[0]
            else:
                sizes = [end[s] - s for s in starts]
                del starts[sizes.index(max(sizes))]
            for s in starts:
                queued[s] = True
                queue.append(s)
    return col


def _first_split(col: list[int]) -> int | None:
    """The colour of the first non-singleton cell, or None when the
    partition is discrete."""
    size = [0] * len(col)
    for c in col:
        size[c] += 1
    return next((c for c, k in enumerate(size) if k > 1), None)


def _individualise(col: list[int], chosen: list[int]) -> list[int]:
    """Split the vertices ``chosen``, which share a cell, off the front
    of it in the order given."""
    start = col[chosen[0]]
    child = [start + len(chosen) if c == start else c for c in col]
    for i, v in enumerate(chosen):
        child[v] = start + i
    return child


def _twins(nbrs: list[tuple[tuple[int, int], ...]]) -> list[list[int]]:
    """The twin classes of two or more vertices, each in increasing
    order: equal multiplicity neighbourhoods, or adjacent with equal
    neighbourhoods apart from each other.  No vertex has both kinds."""
    by_key: dict[tuple, list[int]] = {}
    for v, nb in enumerate(nbrs):
        by_key.setdefault(tuple(sorted(nb)), []).append(v)
    classes = [group for group in by_key.values() if len(group) > 1]
    pairs = [(u, v) for u, nb in enumerate(nbrs) for v, _ in nb
             if u < v and len(nb) == len(nbrs[v])
             and sorted(x for x in nb if x[0] != v)
             == sorted(x for x in nbrs[v] if x[0] != u)]
    if pairs:
        classes += [cls for cls in groups(*components(len(nbrs), pairs))
                    if len(cls) > 1]
    return classes


def _orbits_fixing(n: int, path: list[int], gens: list[list[int]],
                   cell: list[int], twin_of: list[int]) -> list[int]:
    """Orbit labels of the group generated by the automorphisms in
    ``gens`` that fix ``path`` pointwise and the transpositions of twins
    inside ``cell``, ``twin_of`` giving each vertex's twin class or -1."""
    first: dict[int, int] = {}  # the first member of each class in the cell
    pairs = [(first.setdefault(twin_of[v], v), v) for v in cell if twin_of[v] >= 0]
    fixing = [enumerate(g) for g in gens if all(g[p] == p for p in path)]
    return components(n, itertools.chain(pairs, *fixing))[0]


# ---------------------------------------------------------------------------
# the form table and classification


def recognize_doubled_tree(graph: AdGraph) -> tuple[int, ...] | None:
    """Parent list when the graph is a doubled tree (connected, every
    edge doubled, underlying graph acyclic), read off its depth-first
    search: vertex v gets its rank in the visiting order, and its
    parent, visited earlier, a smaller rank.  So ``doubled_tree(parents)``
    is the graph relabelled by rank and needs no isomorphism check.
    ``classify_genus`` passes the canonical form, so the list depends
    only on the isomorphism class."""
    mult = graph.multiplicity()
    if (any(m != 2 for m in mult.values()) or len(mult) != graph.n - 1
            or graph.component_count() != 1):
        return None
    adj: list[list[int]] = [[] for _ in range(graph.n)]
    for u, v in mult:
        adj[u].append(v)
        adj[v].append(u)
    rank = {0: 0}  # in visiting order
    parents: list[int] = []
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in rank:
                rank[w] = len(rank)
                parents.append(rank[u])
                stack.append(w)
    return tuple(parents)


def _dihedral_greatest(*legs: int) -> tuple[int, ...]:
    """The greatest of the rotations and reflections of a cyclic tuple."""
    return max(t[i:] + t[:i] for t in (legs, legs[::-1]) for i in range(len(t)))


class Family(NamedTuple):
    """One entry of the form table."""

    build: Callable[..., AdGraph]
    #: the parameters of the members that ``canonical_contract`` fixes
    minimal: tuple[tuple[int, ...], ...]
    #: one tuple among the parameters that build isomorphic members
    printed: Callable[..., tuple[int, ...]] = lambda *params: tuple(sorted(params))


_LEGS01 = tuple(itertools.product((0, 1), repeat=4))

#: Every family that ``classify_genus`` names, doubled trees apart.
FAMILIES: dict[str, Family] = {
    "single-vertex": Family(lambda: isolated_vertices(1), ((),)),
    "two-doubled-paths": Family(
        lambda p, q: doubled_path(p).disjoint_union(doubled_path(q)), ((1, 1),)),
    "four-cycle-legs": Family(c4_legs, _LEGS01, _dihedral_greatest),
    "k4tilde-two-sum": Family(k4_tilde_two_sum, _LEGS01),
    "doubled-even-cycle": Family(doubled_cycle, ((2,),)),
    "doubled-cycles-disjoint": Family(
        lambda i, j: doubled_cycle(i).disjoint_union(doubled_cycle(j)), ((2, 2),)),
    "doubled-cycles-one-sum": Family(
        lambda i, j: one_sum_components(
            doubled_cycle(i).disjoint_union(doubled_cycle(j)), 0, i),
        ((2, 2),)),
    "doubled-theta": Family(doubled_theta, ((1, 1, 1),)),
    "k4-doubled-paths": Family(k4_doubled_paths, ((1, 1),)),
    "k4-two-sum": Family(k4_two_sum, ((1, 1),)),
}

GENUS2_FAMILIES = ("doubled-cycles-disjoint", "doubled-cycles-one-sum",
                   "doubled-theta", "k4-doubled-paths", "k4-two-sum")

_THEOREMS = {1: ("doubled-even-cycle",), 2: GENUS2_FAMILIES}  # reduced graphs


def _on_form(found: tuple, lengths: dict) -> tuple[tuple, list]:
    """The lengths of a contraction as a vector on the form of its
    canonical search ``found``, in the order of the form's vertex pairs,
    and the actions of the search's generators on it."""
    _, label, gens = found
    order = sorted(lengths, key=lambda e: sorted((label[e[0]], label[e[1]])))
    return tuple(lengths[e] for e in order), pair_actions(order, gens)


@cache
def _forms() -> dict[tuple, tuple[str, tuple]]:
    """Each minimal form's family tag and slots, keyed by the form: slot
    i is ``(entry, rank)`` of parameter i in the vector of lengths, or
    None where the minimal member has it zero, read off a probe member
    with the distinct lengths 3, 4, ... there."""
    table: dict[tuple, tuple[str, tuple]] = {}
    for tag, family in FAMILIES.items():
        for params in family.minimal:
            probe = [3 + i if p else 0 for i, p in enumerate(params)]
            contracted, lengths = contract_with_lengths(family.build(*probe))
            found = canonical_search(contracted)
            vector, _ = _on_form(found, lengths)
            where = {k: (j, r) for j, ks in enumerate(vector) for r, k in enumerate(ks)}
            table.setdefault(found[0], (tag, tuple(where.get(k) for k in probe)))
    return table


def family_of(found: tuple, lengths: dict, genus: int) -> tuple[str | None, tuple]:
    """The family and parameters of a graph whose contraction has the
    canonical search ``found`` and the ``lengths`` of
    ``contract_with_lengths``, or ``(None, ())``: see "Reading the
    parameters" above.  A reduced graph of genus one must be a doubled
    even cycle, and one of genus two must contract to a minimal form of
    genus two; anything else refutes the classification theorems and
    raises ClassificationFailureError."""
    tag, slots = _forms().get(found[0], (None, ()))
    if genus in (1, 2) and tag not in _THEOREMS[genus]:
        raise ClassificationFailureError(
            f"reduced genus-{genus} graph matched no minimal form of its "
            "genus; this contradicts the classification"
        )
    if tag is None:
        return None, ()
    vector, actions = _on_form(found, lengths)
    best = max(orbit(vector, actions))
    params = FAMILIES[tag].printed(
        *(0 if slot is None else best[slot[0]][slot[1]] for slot in slots))
    if tag == "doubled-even-cycle" and params[0] % 2:
        raise ClassificationFailureError(
            "reduced genus-1 graph is not a doubled even cycle")
    return tag, params


@dataclass(frozen=True)
class Classification:
    genus: int
    is_reduced: bool
    family: str | None = None
    parameters: tuple = ()


def classify_genus(graph: AdGraph) -> Classification:
    """Genus, reducedness, and the recognized family for genus 0, 1, 2:
    ``family_of`` the contraction, or a doubled tree.

    Reduced graphs of genus one and two always have a family.  Graphs
    of genus zero pass a gate first, and the contraction is skipped for
    those the gate turns away."""
    genus = turaev_genus_graph(validate_adg(graph))
    reduced = is_reduced(graph)
    if genus == 0:
        degs = graph.degrees()
        twos = degs.count(2)
        if twos > 4 or (0 in degs and graph.n != 1):
            return Classification(0, reduced)
        if graph.edges and recognize_doubled_tree(graph) is not None:
            parents = recognize_doubled_tree(AdGraph(*canonical_form(graph)))
            return Classification(0, reduced, "doubled-tree", (twos,) + parents)
    elif genus > 2 or not reduced:
        return Classification(genus, reduced)
    contracted, lengths = contract_with_lengths(graph)
    found = canonical_search(contracted)  # the only search, trees apart
    return Classification(genus, reduced, *family_of(found, lengths, genus))


# ---------------------------------------------------------------------------
# seeded genus-zero generator


def random_genus0(moves: int, seed: int):
    """Random sequence of doubled pendant moves, two-path extensions, and
    cross-component one-sums, starting from isolated vertices.

    Returns the resulting graph and a replayable line script.
    """
    rng = random.Random(seed)
    n0 = rng.randint(1, 3)
    graph = isolated_vertices(n0)
    script = [f"start {n0}"]
    for _ in range(moves):
        options = ["pendant"]
        degs = graph.degrees()
        if any(d >= 2 for d in degs):
            options.append("twopath")
        if graph.component_count() >= 2:
            options.append("onesum")
        op = rng.choice(options)
        if op == "pendant":
            v = rng.randrange(graph.n)
            graph = doubled_pendant(graph, v)
            script.append(f"pendant {v}")
        elif op == "twopath":
            v = rng.choice([u for u in range(graph.n) if degs[u] >= 2])
            inc = [i for i, e in enumerate(graph.edges) if v in e]
            size = rng.choice([s for s in range(1, len(inc)) if s % 2 == 1])
            a = rng.sample(inc, size)
            graph = two_path_extend(graph, v, a)
            script.append("twopath {} : {}".format(v, " ".join(map(str, sorted(a)))))
        else:
            comps = graph.components()
            c1, c2 = rng.sample(range(len(comps)), 2)
            v1 = rng.choice(comps[c1])
            v2 = rng.choice(comps[c2])
            graph = one_sum_components(graph, v1, v2)
            script.append(f"onesum {v1} {v2}")
    return graph, "\n".join(script) + "\n"


def replay_script(text: str) -> AdGraph:
    """Replay a ``random_genus0`` move script.  A missing, extra or
    non-integer field, a move before ``start``, or a ``start`` of more
    than ``adgraph.MAX_GRAPH_VERTICES`` vertices raises
    MalformedLineError; an unknown move or a bad site (a repeated edge in
    ``twopath`` among them) InvalidSiteError."""
    arity = {"start": 1, "pendant": 1, "onesum": 2, "twopath": 1}
    graph = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, colon, tail = line.partition(":")  # twopath v : edges
        op, *fields = head.split() or [""]
        if op not in arity:
            raise InvalidSiteError(f"unknown script line {line!r}")
        if len(fields) != arity[op] or bool(colon) != (op == "twopath"):
            raise MalformedLineError(lineno, raw, f"wrong fields for {op}")
        try:
            args = [integer(f) for f in fields + tail.split()]
        except ValueError:
            raise MalformedLineError(lineno, raw, "fields must be integers") from None
        if op == "start":
            if args[0] > MAX_GRAPH_VERTICES:
                raise MalformedLineError(
                    lineno, raw, f"vertex count above {MAX_GRAPH_VERTICES}")
            graph = isolated_vertices(*args)
        elif graph is None:
            raise MalformedLineError(lineno, raw, "move before start")
        elif op == "twopath":
            graph = two_path_extend(graph, args[0], args[1:])
        else:
            move = doubled_pendant if op == "pendant" else one_sum_components
            graph = move(graph, *args)
    if graph is None:
        raise InvalidSiteError("empty move script")
    return graph
