"""The classifier as it was before the form table: shape recognizers, a
genus-2 table and rebuild checks.  Kept verbatim as the reference that
``families.classify_genus`` is compared against in
``tests/test_classify.py``, except that it contracts with the stepwise
reference ``verify.stepwise_contract``, so the comparison does not run
``canonical_contract`` on both sides, and builds the two doubled-cycle
forms from ``doubled_cycle`` and ``one_sum_components``."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from turaevgenus.adgraph import (
    AdGraph,
    simplify,
    turaev_genus_graph,
    validate_adg,
)
from turaevgenus.errors import ClassificationFailureError
from turaevgenus.families import (
    c4_legs,
    canonical_form,
    contractible_sites,
    doubled_cycle,
    doubled_theta,
    doubled_tree,
    is_reduced,
    isomorphic,
    k4_doubled_paths,
    k4_tilde_two_sum,
    k4_two_sum,
    one_sum_components,
)
from turaevgenus.verify import stepwise_contract


def recognize_doubled_path(graph: AdGraph) -> int | None:
    """Length when the graph is a single doubled path (0 = one vertex)."""
    if graph.n == 1 and not graph.edges:
        return 0
    mult = graph.multiplicity()
    if any(m != 2 for m in mult.values()) or len(mult) != graph.n - 1:
        return None
    si = simplify(graph)
    if si.component_count() != 1:
        return None
    deg = si.degrees()
    if sorted(deg) != [1, 1] + [2] * (graph.n - 2):
        return None
    return graph.n - 1


def recognize_doubled_cycle(graph: AdGraph) -> int | None:
    """Cycle length when the graph is a single doubled cycle."""
    if graph.n == 2:
        mult = graph.multiplicity()
        if list(mult.values()) == [4]:
            return 2
        return None
    mult = graph.multiplicity()
    if any(m != 2 for m in mult.values()) or len(mult) != graph.n:
        return None
    if graph.component_count() != 1:
        return None
    deg = simplify(graph).degrees()
    if any(d != 2 for d in deg):
        return None
    return graph.n


def recognize_doubled_tree(graph: AdGraph) -> tuple[int, ...] | None:
    """Parent list when the graph is a doubled tree (connected, every
    edge doubled, underlying graph acyclic)."""
    mult = graph.multiplicity()
    if any(m != 2 for m in mult.values()):
        return None
    if len(mult) != graph.n - 1 or graph.component_count() != 1:
        return None
    adj: dict[int, list[int]] = {v: [] for v in range(graph.n)}
    for u, v in mult:
        adj[u].append(v)
        adj[v].append(u)
    parent = {0: None}
    order = [0]
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
                stack.append(w)
    rank = {v: i for i, v in enumerate(order)}
    return tuple(rank[parent[v]] for v in order[1:])


def _maximal_doubled_paths(graph: AdGraph) -> list[list[int]]:
    """Split the doubled part into maximal doubled paths, each given as
    its vertex chain; a bundle of 2m parallel edges counts as m paths of
    length one."""
    mult = graph.multiplicity()
    doubled_adj: dict[int, list[int]] = {}
    for (u, v), m in mult.items():
        if m == 2:
            doubled_adj.setdefault(u, []).append(v)
            doubled_adj.setdefault(v, []).append(u)
    interior = set(contractible_sites(graph))
    segments = []
    seen_pairs = set()
    for start in sorted(doubled_adj):
        if start in interior:
            continue
        for first in sorted(doubled_adj[start]):
            if (start, first) in seen_pairs:
                continue
            chain = [start, first]
            seen_pairs.add((start, first))
            seen_pairs.add((first, start))
            while chain[-1] in interior:
                nxt = next(
                    w for w in doubled_adj[chain[-1]] if w != chain[-2]
                )
                seen_pairs.add((chain[-1], nxt))
                seen_pairs.add((nxt, chain[-1]))
                chain.append(nxt)
            segments.append(chain)
    # each path found twice, once from each end
    unique = []
    listed = set()
    for seg in segments:
        key = (seg[0], seg[1], seg[-1], len(seg))
        rkey = (seg[-1], seg[-2], seg[0], len(seg))
        if key in listed or rkey in listed:
            continue
        listed.add(key)
        unique.append(seg)
    unique += [[u, v] for (u, v), m in mult.items() if m > 2 for _ in range(m // 2)]
    return unique


@dataclass(frozen=True)
class Classification:
    genus: int
    is_reduced: bool
    family: str | None = None
    parameters: tuple = ()


def _two_cycles(i: int, j: int) -> AdGraph:
    return doubled_cycle(i).disjoint_union(doubled_cycle(j))


def _two_cycles_one_sum(i: int, j: int) -> AdGraph:
    return one_sum_components(_two_cycles(i, j), 0, i)


_GENUS2_FORMS = (
    ("doubled-cycles-disjoint", lambda: _two_cycles(2, 2)),
    ("doubled-cycles-one-sum", lambda: _two_cycles_one_sum(2, 2)),
    ("doubled-theta", lambda: doubled_theta(1, 1, 1)),
    ("k4-doubled-paths", lambda: k4_doubled_paths(1, 1)),
    ("k4-two-sum", lambda: k4_two_sum(1, 1)),
)


def genus2_minimal_forms() -> list[tuple[str, AdGraph]]:
    return [(tag, build()) for tag, build in _GENUS2_FORMS]


@cache
def _genus2_tags() -> dict[tuple, str]:
    """Family tag of each minimal form, keyed by its canonical form."""
    return {canonical_form(form): tag for tag, form in genus2_minimal_forms()}


def _classify_genus2(graph: AdGraph) -> tuple[str, tuple]:
    tag = _genus2_tags().get(canonical_form(stepwise_contract(graph)))
    if tag is None:
        raise ClassificationFailureError(
            "reduced genus-2 graph matched no minimal forms; "
            "this contradicts the classification"
        )
    if tag == "doubled-cycles-disjoint":
        comps = graph.components()
        params = tuple(sorted(
            recognize_doubled_cycle(_induced(graph, comp)) for comp in comps
        ))
    elif tag == "doubled-cycles-one-sum":
        deg = graph.degrees()
        hub = deg.index(8)
        params = _one_sum_cycle_lengths(graph, hub)
    else:
        params = tuple(sorted(len(s) - 1 for s in _maximal_doubled_paths(graph)))
    rebuilt = {
        "doubled-cycles-disjoint": lambda: _two_cycles(*params),
        "doubled-cycles-one-sum": lambda: _two_cycles_one_sum(*params),
        "doubled-theta": lambda: doubled_theta(*params),
        "k4-doubled-paths": lambda: k4_doubled_paths(*params),
        "k4-two-sum": lambda: k4_two_sum(*params),
    }[tag]()
    ok, _ = isomorphic(graph, rebuilt)
    if not ok:
        raise ClassificationFailureError(
            f"parameter recovery for {tag} with {params} failed verification"
        )
    return tag, params


def _induced(graph: AdGraph, comp: list[int]) -> AdGraph:
    members = {v: i for i, v in enumerate(sorted(comp))}
    edges = tuple(
        (members[u], members[v]) for u, v in graph.edges if u in members
    )
    return AdGraph(len(comp), edges)


def _one_sum_cycle_lengths(graph: AdGraph, hub: int) -> tuple:
    """Cycle lengths of two doubled cycles glued at ``hub``: deleting the
    hub leaves one doubled path per cycle, one vertex shorter."""
    keep = [v for v in range(graph.n) if v != hub]
    index = {v: i for i, v in enumerate(keep)}
    edges = tuple(
        (index[u], index[v]) for u, v in graph.edges if hub not in (u, v)
    )
    rest = AdGraph(len(keep), edges)
    sizes = sorted(len(c) for c in rest.components())
    return tuple(s + 1 for s in sizes)


def _classify_genus0_shape(graph: AdGraph) -> tuple[str, tuple] | None:
    """Match against the genus-zero shapes with at most four degree-two
    vertices: two doubled paths, a doubled tree, a four-cycle with legs,
    or the two-sum of two K4-minus-an-edge pieces."""
    comps = graph.components()
    if len(comps) == 2:
        lens = [recognize_doubled_path(_induced(graph, c)) for c in comps]
        if all(l is not None and l >= 1 for l in lens):
            return "two-doubled-paths", tuple(sorted(lens))
    if len(comps) != 1:
        return None
    parents = recognize_doubled_tree(graph)
    if parents is not None:
        rebuilt = doubled_tree(parents)
        if isomorphic(graph, rebuilt)[0]:
            leaves = sum(1 for d in graph.degrees() if d == 2)
            return "doubled-tree", (leaves,) + tuple(parents)
    shape = _recognize_core_with_legs(graph)
    if shape is not None:
        return shape
    return None


def _leg_lengths(graph: AdGraph) -> dict[int, int]:
    """The length of a doubled path ending at each vertex: at a core
    vertex its pendant leg, if the rebuild confirms the shape."""
    return {v: len(seg) - 1
            for seg in _maximal_doubled_paths(graph) for v in (seg[0], seg[-1])}


def _recognize_core_with_legs(graph: AdGraph) -> tuple[str, tuple] | None:
    mult = graph.multiplicity()
    singles = [(u, v) for (u, v), m in mult.items() if m == 1]
    if any(m not in (1, 2) for m in mult.values()):
        return None
    core_vertices = sorted({v for e in singles for v in e})
    deg_single: dict[int, int] = {}
    for u, v in singles:
        deg_single[u] = deg_single.get(u, 0) + 1
        deg_single[v] = deg_single.get(v, 0) + 1

    if len(singles) == 4 and len(core_vertices) == 4 and all(
        deg_single.get(v) == 2 for v in core_vertices
    ):
        # candidate C4(p, q, r, s): walk the 4-cycle in embedding order
        adj = {v: [w for e in singles for w in e if v in e and w != v]
               for v in core_vertices}
        cyc = [core_vertices[0]]
        while len(cyc) < 4:
            nxt = [w for w in adj[cyc[-1]] if len(cyc) < 2 or w != cyc[-2]]
            if not nxt:
                return None
            cyc.append(nxt[0])
        if sorted(cyc) != core_vertices:
            return None
        leg = _leg_lengths(graph)
        params = tuple(leg.get(c, 0) for c in cyc)
        rebuilt = c4_legs(*params)
        if isomorphic(graph, rebuilt)[0]:
            return "four-cycle-legs", params
        return None

    if len(singles) == 8 and len(core_vertices) == 6:
        hubs = [v for v in core_vertices if deg_single.get(v) == 4]
        junctions = [v for v in core_vertices if deg_single.get(v) == 2]
        if len(hubs) != 2 or len(junctions) != 4:
            return None
        leg = _leg_lengths(graph)
        params = tuple(sorted(leg.get(j, 0) for j in junctions))
        rebuilt = k4_tilde_two_sum(*params)
        if isomorphic(graph, rebuilt)[0]:
            return "k4tilde-two-sum", params
    return None


def classify_genus(graph: AdGraph) -> Classification:
    """Genus, reducedness, and the recognized family for genus 0, 1, 2.

    A reduced graph of genus one must be a doubled even cycle; a reduced
    graph of genus two must contract to one of the five minimal forms.
    Anything else in those cases would refute the classification theorems
    and raises ClassificationFailureError.
    """
    validated = validate_adg(graph)
    genus = turaev_genus_graph(validated)
    reduced = is_reduced(graph)
    if genus == 0:
        if graph.n == 1 and not graph.edges:
            return Classification(0, True, "single-vertex", ())
        degs = graph.degrees()
        if all(d > 0 for d in degs) and sum(1 for d in degs if d == 2) <= 4:
            shape = _classify_genus0_shape(graph)
            if shape:
                return Classification(0, reduced, shape[0], shape[1])
        return Classification(0, reduced)
    if genus == 1 and reduced:
        length = recognize_doubled_cycle(graph)
        if length is None or length % 2:
            raise ClassificationFailureError(
                "reduced genus-1 graph is not a doubled even cycle"
            )
        return Classification(1, True, "doubled-even-cycle", (length,))
    if genus == 2 and reduced:
        tag, params = _classify_genus2(graph)
        return Classification(2, True, tag, params)
    return Classification(genus, reduced)
