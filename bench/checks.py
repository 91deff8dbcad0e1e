"""Checks computed apart from the program.

Every fact here comes from networkx or from the small routines below,
never from ``turaevgenus``: multigraph isomorphism, planarity,
bipartiteness, minimum cuts, the all-twisted genus by zig-zag walks on
a networkx plane embedding, and, for PD codes, extreme-state circle
labels (which give the state genus and adequacy in linear time) and
link components.

Outputs reach these functions as plain data (tuples, dicts, ints), so
the self-test can hand them deliberately wrong answers.  Each check
records a pass or a failure on a ``Checker``; a run whose checker holds
a failure or no passes at all is reported as incorrect.
"""

from __future__ import annotations

import networkx as nx

import graphs


class Checker:
    def __init__(self):
        self.passed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)

    @property
    def ok(self) -> bool:
        return self.passed > 0 and not self.failures


# -- multigraphs ---------------------------------------------------------------

def multigraph(n: int, edges) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def _weighted_simple(g: nx.MultiGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g)
    for u, v in g.edges():
        w = h.get_edge_data(u, v, {"weight": 0})["weight"]
        h.add_edge(u, v, weight=w + 1)
    return h


def is_even(g: nx.MultiGraph) -> bool:
    return all(d % 2 == 0 for _, d in g.degree())


def is_planar(g: nx.MultiGraph) -> bool:
    return nx.check_planarity(nx.Graph(g))[0]


def is_reduced(g: nx.MultiGraph) -> bool:
    """A single vertex, or every component 3-edge-connected.

    ``nx.edge_connectivity`` collapses parallel edges, so the cut is
    taken with Stoer-Wagner on multiplicity weights instead.
    """
    if g.number_of_nodes() == 1 and g.number_of_edges() == 0:
        return True
    for comp in nx.connected_components(g):
        if len(comp) == 1:
            return False
        cut, _ = nx.stoer_wagner(_weighted_simple(g.subgraph(comp)))
        if cut < 3:
            return False
    return True


def iso_invariant(g: nx.MultiGraph) -> tuple:
    """An isomorphism invariant that refines the degree sequence."""
    deg = dict(g.degree())
    local = []
    for v in g:
        nbrs = sorted(
            (g.number_of_edges(v, w), deg[w]) for w in g.neighbors(v)
        )
        local.append((deg[v], tuple(nbrs)))
    return (g.number_of_nodes(), g.number_of_edges(), tuple(sorted(local)))


def twisted_genus(n: int, edges) -> int | None:
    """Genus of the all-twisted ribbon graph of a plane embedding.

    networkx embeds the simple graph; parallel copies are bundled in
    order at the lower endpoint and in reverse at the upper one.  The
    flat faces must satisfy Euler's formula on every component, else
    None is returned.  The boundary circles of the all-twisted surface
    are the zig-zag walks, which turn alternately one way and the other;
    each is met once per direction, so the orbit count halves.
    """
    g = multigraph(n, edges)
    ok, emb = nx.check_planarity(nx.Graph(g))
    if not ok:
        return None
    copies: dict[tuple[int, int], list[int]] = {}
    for i, (u, v) in enumerate(edges):
        copies.setdefault((min(u, v), max(u, v)), []).append(i)
    # dart 2i sits at the lower endpoint of edge copy i, 2i+1 at the upper
    rot: list[list[int]] = []
    for v in range(n):
        row: list[int] = []
        for w in emb.neighbors_cw_order(v):
            key = (min(v, w), max(v, w))
            side = 0 if v == key[0] else 1
            bundle = [2 * i + side for i in copies[key]]
            row.extend(bundle if side == 0 else reversed(bundle))
        rot.append(row)
    succ: dict[int, int] = {}
    pred: dict[int, int] = {}
    for row in rot:
        for i, d in enumerate(row):
            succ[d] = row[(i + 1) % len(row)]
            pred[row[(i + 1) % len(row)]] = d

    def orbits(step, states) -> int:
        seen = set()
        count = 0
        for s0 in states:
            if s0 in seen:
                continue
            count += 1
            s = s0
            while s not in seen:
                seen.add(s)
                s = step(s)
        return count

    darts = list(succ)
    k = nx.number_connected_components(g)
    isolated = sum(1 for row in rot if not row)
    flat_faces = orbits(lambda d: succ[d ^ 1], darts) + isolated
    if n - len(edges) + flat_faces != 2 * k:
        return None
    zigzag = orbits(
        lambda s: (succ[s[0] ^ 1], -1) if s[1] > 0 else (pred[s[0] ^ 1], 1),
        [(d, sign) for d in darts for sign in (1, -1)],
    )
    if zigzag % 2:
        return None
    euler_genus = 2 * k - n + len(edges) - (zigzag // 2 + isolated)
    if euler_genus % 2:
        return None
    return euler_genus // 2


# -- PD codes --------------------------------------------------------------------

class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[ri] = rj

    def classes(self) -> int:
        return sum(1 for i in range(len(self.parent)) if self.find(i) == i)


def pd_facts(crossings) -> dict:
    """Crossings, split components, extreme-state circles, adequacy,
    link components and alternation of a PD code.

    Half-edge ``4c + s`` is slot s of crossing c; slots 0 and 2 are the
    under-strand.  One extreme state joins slots 0-1 and 2-3, the other
    0-3 and 1-2; a state is adequate when no crossing has both of its
    smoothing arcs on one circle.
    """
    c = len(crossings)
    ends: dict[int, list[int]] = {}
    for ci, x in enumerate(crossings):
        for s, arc in enumerate(x):
            ends.setdefault(arc, []).append(4 * ci + s)
    if any(len(hs) != 2 for hs in ends.values()):
        raise ValueError("every arc must occur exactly twice")
    arcs = list(ends.values())

    def circles(pairs, inadequate_probe):
        uf = _UnionFind(4 * c)
        for h1, h2 in arcs:
            uf.union(h1, h2)
        for ci in range(c):
            for s, t in pairs:
                uf.union(4 * ci + s, 4 * ci + t)
        adequate = all(
            uf.find(4 * ci) != uf.find(4 * ci + inadequate_probe)
            for ci in range(c)
        )
        return uf.classes(), adequate

    s_a, adequate_a = circles(((0, 1), (2, 3)), 2)
    s_b, adequate_b = circles(((0, 3), (1, 2)), 1)

    split = _UnionFind(c)
    for h1, h2 in arcs:
        split.union(h1 >> 2, h2 >> 2)
    strands = _UnionFind(4 * c)
    for h1, h2 in arcs:
        strands.union(h1, h2)
    for ci in range(c):
        strands.union(4 * ci, 4 * ci + 2)
        strands.union(4 * ci + 1, 4 * ci + 3)
    k = split.classes()
    twice = 2 * k + c - s_a - s_b
    return {
        "crossings": c,
        "split": k,
        "genus": twice // 2 if twice % 2 == 0 else None,
        "adequate": adequate_a and adequate_b,
        "components": strands.classes(),
        "alternating": all((h1 & 1) != (h2 & 1) for h1, h2 in arcs),
    }


# -- Laurent polynomials -----------------------------------------------------------

def in_t(poly_a: dict[int, int]) -> dict[int, int] | None:
    """A polynomial in the bracket variable A rewritten in t = A^-4;
    None when some exponent is not a multiple of 4 (a link with an even
    number of components)."""
    if any(e % 4 for e in poly_a):
        return None
    return {-e // 4: c for e, c in poly_a.items() if c}


def mirror(poly_t: dict[int, int]) -> dict[int, int]:
    return {-e: c for e, c in poly_t.items()}


def equal_up_to_mirror(poly_t, expected: dict[int, int]) -> bool:
    return poly_t is not None and (poly_t == expected or mirror(poly_t) == expected)


# -- per-workload checks ------------------------------------------------------------

def check_roundtrip(ck: Checker, name: str, g: graphs.Graph, out: dict) -> None:
    """Decomposition graph isomorphic to the input as a multigraph, the
    genus routes agree with each other and with the state genus taken
    from the PD code, and the realized diagram is adequate."""
    n, edges = out["dec"]
    ck.check(
        nx.is_isomorphic(multigraph(n, edges), multigraph(g.n, g.edges)),
        f"{name}: decomposition graph is not isomorphic to the input",
    )
    facts = pd_facts(out["pd"])
    genera = set(out["genera"].values()) | {facts["genus"]}
    ck.check(len(genera) == 1, f"{name}: genus routes disagree {out['genera']}, "
             f"state genus from the PD code {facts['genus']}")
    ck.check(out["adequate"] and facts["adequate"],
             f"{name}: realized diagram is not adequate")


def check_large(ck: Checker, name: str, g: graphs.Graph, out: dict,
                family: tuple | None = None) -> None:
    """Every genus route equals the family's closed form; a realized
    diagram decomposes back to the input's degree multiset and is
    adequate; a classified graph gets its family."""
    for route, genus in out["genera"].items():
        ck.check(genus == g.genus,
                 f"{name}: {route} genus {genus}, closed form {g.genus}")
    if "dec" in out:
        n, edges = out["dec"]
        ck.check(graphs.degree_multiset(n, edges) == graphs.degree_multiset(g.n, g.edges),
                 f"{name}: decomposition graph degrees differ from the input's")
        facts = pd_facts(out["pd"])
        ck.check(facts["genus"] == g.genus,
                 f"{name}: state genus from the PD code {facts['genus']}")
        ck.check(out["adequate"] and facts["adequate"],
                 f"{name}: realized diagram is not adequate")
    if family is not None:
        ck.check(out["family"] == family,
                 f"{name}: classified as {out['family']}, expected {family}")


#: contracted minimal forms of the five reduced genus-2 classes (the
#: paper's families), as (vertices, edges)
GENUS2_FORMS = {
    "doubled-cycles-disjoint": (4, [(0, 1)] * 4 + [(2, 3)] * 4),
    "doubled-cycles-one-sum": (3, [(0, 1)] * 4 + [(0, 2)] * 4),
    "doubled-theta": (2, [(0, 1)] * 6),
    "k4-doubled-paths": (4, [(0, 1)] * 2 + [(2, 3)] * 2
                         + [(0, 2), (0, 3), (1, 2), (1, 3)]),
    # K4 with 01 doubled, two copies glued along 23, which is deleted
    "k4-two-sum": (6, [(0, 1)] * 2 + [(4, 5)] * 2
                   + [(0, 2), (0, 3), (1, 2), (1, 3),
                      (4, 2), (4, 3), (5, 2), (5, 3)]),
}


def check_census_graphs(ck: Checker, name: str, found, genus: int | None,
                        reduced: bool) -> None:
    """Every graph even, bipartite and planar; pairwise non-isomorphic
    within invariant buckets; for a genus query the all-twisted genus
    equals the query's; for a reduced query every component is
    3-edge-connected."""
    buckets: dict[tuple, list[nx.MultiGraph]] = {}
    for i, (n, edges) in enumerate(found):
        g = multigraph(n, edges)
        tag = f"{name} graph {i}"
        ck.check(is_even(g), f"{tag}: a vertex has odd degree")
        ck.check(nx.is_bipartite(g), f"{tag}: not bipartite")
        ck.check(is_planar(g), f"{tag}: not planar")
        if genus is not None:
            got = twisted_genus(n, edges)
            ck.check(got == genus, f"{tag}: all-twisted genus {got}, query {genus}")
        if reduced:
            ck.check(is_reduced(g), f"{tag}: a component is not 3-edge-connected")
        bucket = buckets.setdefault(iso_invariant(g), [])
        ck.check(not any(nx.is_isomorphic(g, other) for other in bucket),
                 f"{tag}: isomorphic to an earlier graph")
        bucket.append(g)


def check_genus2_classes(ck: Checker, name: str, classes) -> None:
    """Exactly the paper's five families, each contracted form
    isomorphic to that family's minimal form."""
    ck.check(sorted(c["family"] for c in classes) == sorted(GENUS2_FORMS),
             f"{name}: families {sorted(c['family'] for c in classes)}")
    for cls in classes:
        form = GENUS2_FORMS.get(cls["family"])
        ck.check(
            form is not None
            and nx.is_isomorphic(multigraph(*cls["contracted"]), multigraph(*form)),
            f"{name}: class {cls['family']} does not contract to its minimal form",
        )


def check_bracket(ck: Checker, name: str, kind: str, pd, out: dict) -> None:
    """V(1) = (-2)^(components - 1), so 1 on every knot; Jones' formula
    on odd (2, k) torus knots and the table on 9_42, up to mirror;
    span = c on reduced alternating knots; span + g_T = c on adequate
    realized diagrams."""
    facts = pd_facts(pd)
    c = facts["crossings"]
    ck.check(sum(out["jones"].values()) == (-2) ** (facts["components"] - 1),
             f"{name}: V(1) = {sum(out['jones'].values())} with "
             f"{facts['components']} component(s)")
    poly_t = in_t(out["jones"])
    if kind.startswith("torus-2-"):
        k = int(kind.rsplit("-", 1)[1])
        ck.check(equal_up_to_mirror(poly_t, graphs.torus_knot_jones(k)),
                 f"{name}: V differs from Jones' (2,{k}) torus knot formula")
    if kind == "9_42":
        ck.check(equal_up_to_mirror(poly_t, graphs.NINE_42_JONES),
                 f"{name}: V differs from the tabulated 9_42 polynomial")
    if kind in ("alternating", "9_42") or kind.startswith("torus-2-"):
        ck.check(facts["components"] == 1, f"{name}: not a knot")
    if kind == "alternating" or kind.startswith("torus-2-"):
        ck.check(facts["alternating"] and facts["adequate"],
                 f"{name}: not a reduced alternating diagram")
        ck.check(out["span"] == c, f"{name}: span {out['span']} != c = {c}")
    if kind == "realized":
        ck.check(facts["adequate"] and facts["split"] == 1,
                 f"{name}: realized diagram not connected and adequate")
        ck.check(out["span"] + facts["genus"] == c,
                 f"{name}: span {out['span']} + g_T {facts['genus']} != c = {c}")
