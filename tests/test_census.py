import functools
import itertools
import random
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from turaevgenus import census as census_module, corpus, families, perm
from turaevgenus.adgraph import (
    AdGraph,
    find_bipartition,
    turaev_genus_graph,
    validate_adg,
)
from turaevgenus.census import (
    CensusFilter,
    census,
    connected_atoms,
    enumerate_adgs,
    simple_connected_graphs,
)
from turaevgenus.errors import BoundsTooLargeError, TuraevError
from turaevgenus.families import canonical_form, canonical_search, is_reduced

from census_oracle import (
    _even_multiplicity_assignments as first_per_form_assignments,
    _graph_deletion_keys,
    enumerate_adgs as filtering_enumerate_adgs,
    graph_per_child_simple_connected_graphs,
    need_bound,
    tuple_per_step_even_multiplicity_assignments,
    unpruned_atoms,
    unpruned_simple_graphs,
)
from iso_oracle import find_isomorphism, isomorphisms


def naive_validated_adgs(max_v: int, max_e: int) -> list[AdGraph]:
    """Independent brute-force generator over labeled multiplicity
    vectors, deduplicated up to isomorphism."""
    found: list[AdGraph] = []

    def record(graph: AdGraph):
        try:
            validate_adg(graph)
        except TuraevError:
            return
        for other in found:
            if find_isomorphism(graph, other) is not None:
                return
        found.append(graph)

    for n in range(1, max_v + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for total in range(0, max_e + 1):
            for combo in itertools.combinations_with_replacement(
                range(len(pairs)), total
            ):
                edges = tuple(pairs[i] for i in combo)
                record(AdGraph(n, edges))
    return found


def test_census_matches_naive_generator():
    for max_v, max_e in ((2, 4), (3, 4), (4, 4)):
        mine = enumerate_adgs(CensusFilter(max_vertices=max_v, max_edges=max_e))
        naive = naive_validated_adgs(max_v, max_e)
        assert len(mine) == len(naive)
        for g in mine:
            assert any(
                find_isomorphism(AdGraph(g.n, g.edges), h) is not None
                for h in naive
            )


@pytest.mark.parametrize("filt", [
    CensusFilter(max_vertices=8, max_edges=12),
    # the query behind `adg census --genus 2 --max-edges 16 --reduced`
    CensusFilter(max_vertices=8, max_edges=16, require_reduced=True,
                 genus_equals=2, allow_isolated=False),
], ids=["all-8-12", "reduced-genus2-16"])
def test_enumerated_graphs_pass_validation(filt):
    """``enumerate_adgs`` validates nothing; every graph it returns must
    still pass ``validate_adg``."""
    graphs = enumerate_adgs(filt)
    assert len(graphs) > 10
    for graph in graphs:
        assert validate_adg(graph).rotations is not None


@pytest.mark.parametrize("graphs", [
    lambda: enumerate_adgs(CensusFilter(10, 10)),
    lambda: enumerate_adgs(CensusFilter(8, 16, genus_equals=2)),
    lambda: [g for cls in census(3, CensusFilter(8, 16, allow_isolated=False))
             for g in cls.members],
], ids=["all-10-10", "genus2-16", "reduced-genus3-census-16"])
def test_census_graphs_are_plain_values(graphs):
    """The census returns plain graphs, with no rotations and nothing
    validated, that are bipartite all the same."""
    found = graphs()
    assert len(found) > 20
    for graph in found:
        assert graph.rotations is None and "_valid" not in vars(graph)
        find_bipartition(graph)


def test_bipartition_found_once_per_atom(monkeypatch):
    """One ``enumerate_adgs(CensusFilter(10, 10))`` two-colours none of
    its 138 kept stage-1 classes with edges, 139 atoms or 1,100 graphs:
    each class's sides are read once, off its child's sides through its
    canonical labelling, and kept beside it for its own children."""
    calls = []
    real = perm.two_colouring

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(perm, "two_colouring", counting)
    graphs = enumerate_adgs(CensusFilter(10, 10))
    coloured = len(calls)
    monkeypatch.undo()
    classes = [g for g, _ in simple_connected_graphs(10, 10) if g.edge_count]
    atoms = [a for a in connected_atoms(10, 10) if a.edge_count]
    assert (coloured, len(classes), len(atoms), len(graphs)) == (0, 138, 139, 1100)


def test_census_two_vertices():
    got = enumerate_adgs(CensusFilter(max_vertices=2, max_edges=4))
    shapes = sorted((g.n, g.edge_count) for g in got)
    assert shapes == [(1, 0), (2, 0), (2, 2), (2, 4)]


def test_census_no_edges():
    got = enumerate_adgs(CensusFilter(max_vertices=3, max_edges=0))
    assert all(g.edge_count == 0 for g in got)
    assert sorted(g.n for g in got) == [1, 2, 3]


def test_census_deterministic():
    a = enumerate_adgs(CensusFilter(max_vertices=8, max_edges=12))
    b = enumerate_adgs(CensusFilter(max_vertices=8, max_edges=12))
    assert [(g.n, g.edges) for g in a] == [(g.n, g.edges) for g in b]


def test_returned_lists_belong_to_the_caller():
    """Emptying or trimming what one stage returns leaves every later
    query whole: no query hands out a list that another one reads."""
    before = [(g.n, g.edges) for g in enumerate_adgs(CensusFilter(6, 8))]
    assert len(before) == 125
    del simple_connected_graphs(6, 8)[1:]
    connected_atoms(6, 8).clear()
    after = [(g.n, g.edges) for g in enumerate_adgs(CensusFilter(6, 8))]
    assert after == before


def test_bounds_guard():
    with pytest.raises(BoundsTooLargeError):
        CensusFilter(max_vertices=3, max_edges=40)
    with pytest.raises(BoundsTooLargeError):
        CensusFilter(max_vertices=-1, max_edges=2)


def test_simple_graph_generation_counts():
    # connected simple bipartite planar graphs on <= 4 vertices: the
    # vertex, the edge, both trees on 3 vertices... cross-checked by a
    # direct count below
    got = simple_connected_graphs(4, 6)
    by_n = {}
    for g, _ in got:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    # n=1: K1; n=2: K2; n=3: the path; n=4: path, star, C4, C4+chord is
    # not bipartite, K4 minus edge not bipartite => path, star, cycle
    assert by_n == {1: 1, 2: 1, 3: 1, 4: 3}


def test_connected_atoms_min_degree():
    atoms = connected_atoms(4, 8, min_degree=4)
    assert all(
        a.edge_count == 0 or min(d for d in a.degrees()) >= 4 for a in atoms
    )


# --- the need prune of stage 1 ------------------------------------------------

@pytest.mark.parametrize("bounds", [(10, 10, 2), (8, 12, 2), (8, 16, 4)])
def test_connected_atoms_match_unpruned_oracle(bounds):
    """The pruned stage 1 gives the same atoms, in the same order, as
    stage 2 run on every connected simple bipartite planar graph."""
    got = [(g.n, g.edges) for g in connected_atoms(*bounds)]
    assert got == [(g.n, g.edges) for g in unpruned_atoms(*bounds)]


@pytest.mark.parametrize("bounds,kept,total", [
    ((10, 10, 2), 139, 821),
    ((8, 16, 4), 194, 226),
    # the earlier-parent test skips 1,822 children here
    ((9, 18, 4), 618, 808),
])
def test_prune_drops_exactly_the_graphs_over_budget(bounds, kept, total):
    """Stage 1 keeps the oracle's graphs with need bound at most the
    edge budget, with the same representatives in the same order, and
    drops the rest; the counts show that it does drop."""
    max_v, max_e, min_degree = bounds
    oracle = unpruned_simple_graphs(max_v, max_e)
    within = [(g.n, g.edges) for g in oracle
              if g.edge_count == 0 or need_bound(g, min_degree) <= max_e]
    got = simple_connected_graphs(max_v, max_e, min_degree)
    assert [(g.n, g.edges) for g, _ in got] == within
    assert (len(got), len(oracle)) == (kept, total)


ORACLE_BOUNDS = [(10, 10, 2), (8, 16, 4), (10, 20, 4)]


@pytest.fixture(scope="module", params=ORACLE_BOUNDS, ids=lambda b: "-".join(map(str, b)))
def stage1_pair(request):
    """Stage 1 and the copy of its per-child graph version at one bound."""
    bounds = request.param
    return (bounds, simple_connected_graphs(*bounds),
            graph_per_child_simple_connected_graphs(*bounds))


def test_stage1_matches_the_per_child_graph_version(stage1_pair):
    """Stage 1 on the parent's arrays keeps the graphs, generators and
    order that building every child as a graph kept.  The per-child
    version two-colours each parent with ``find_bipartition``; the sides
    fix the order in which a parent's neighbour sets are drawn, and so
    the generators, so equal generators check the sides that stage 1
    carries through the labelling against ``find_bipartition``'s."""
    _, got, want = stage1_pair
    assert len(got) > 100
    assert [(g.n, g.edges, gens) for g, gens in got] == [
        (g.n, g.edges, gens) for g, gens in want]


def test_stage2_matches_the_per_step_tuple_version(stage1_pair):
    """Stage 2 without per-step tuples keeps the assignments, in the
    same order, that the version building a parity tuple per cycle-space
    element kept, on every stage-1 graph."""
    (_, max_e, min_degree), got, _ = stage1_pair
    found = [census_module._even_multiplicity_assignments(g, gens, max_e, min_degree)
             for g, gens in got]
    assert found == [
        tuple_per_step_even_multiplicity_assignments(g, gens, max_e, min_degree)
        for g, gens in got]
    assert sum(map(len, found)) > 100


@pytest.mark.parametrize("bounds,built", [((10, 10, 2), 287), ((8, 16, 4), 416)],
                         ids=["10-10-2", "8-16-4"])
def test_stage1_builds_a_graph_per_search_and_per_class(monkeypatch, bounds, built):
    """Stage 1 builds one ``AdGraph`` per searched child (148 and 222),
    one per kept class and the single vertex, and no other: the per-child
    graph version built 646 and 1,053, one for every child that reached
    the rule and two per kept class."""
    graphs = _count_calls(monkeypatch, "AdGraph")
    searches = _count_calls(monkeypatch, "canonical_search")
    kept = simple_connected_graphs(*bounds)
    assert len(graphs) == len(searches) + len(kept) == built


# --- canonical representatives ------------------------------------------------

def _is_automorphism(g: list[int], edges: tuple) -> bool:
    return sorted(tuple(sorted((g[u], g[v]))) for u, v in edges) == sorted(edges)


@pytest.mark.parametrize("bounds", [(8, 12, 2), (8, 16, 4)])
def test_stage1_keeps_canonical_forms(bounds):
    """Each stage-1 graph is its own canonical form, whatever order
    it was generated in, and comes with automorphisms of that form."""
    graphs = simple_connected_graphs(*bounds)
    for graph, gens in graphs:
        assert graph.edges == canonical_form(graph)[1]
        assert all(_is_automorphism(g, graph.edges) for g in gens)
    assert sum(1 for _, gens in graphs if gens) > 50


def test_atoms_are_canonical_representatives():
    """Each atom is the canonical form of its simple graph carrying the
    least multiplicity vector over the whole automorphism group of that
    graph, as the backtracking oracle lists it, and the atoms come in
    (n, E, edges) order."""
    atoms = connected_atoms(8, 12)
    assert atoms == sorted(atoms, key=lambda g: (g.n, g.edge_count, g.edges))
    moved = 0
    for atom in atoms:
        mult = atom.multiplicity()
        simple = AdGraph(atom.n, tuple(sorted(mult)))
        assert simple.edges == canonical_form(simple)[1]
        least = tuple(mult[e] for e in simple.edges)
        for g in isomorphisms(simple, simple):
            image = {tuple(sorted((g[u], g[v]))): m for (u, v), m in mult.items()}
            vector = tuple(image[e] for e in simple.edges)
            assert least <= vector, atom
            moved += vector != least
    assert moved > 1000


# --- stage 2 from the cycle space ---------------------------------------------

STAGE2_BOUNDS = [(10, 10, 2), (8, 12, 2), (8, 16, 4)]


@pytest.mark.parametrize("bounds", STAGE2_BOUNDS)
def test_stage2_keeps_the_first_assignment_per_form(bounds):
    """The cycle-space walk with orbit deduplication keeps exactly the
    assignments, in the same order, that backtracking through every
    multiplicity vector and keeping the first per canonical form kept."""
    max_v, max_e, min_degree = bounds
    simples = simple_connected_graphs(max_v, max_e, min_degree)
    got = [census_module._even_multiplicity_assignments(g, gens, max_e, min_degree)
           for g, gens in simples]
    assert got == [first_per_form_assignments(g, max_e, min_degree)
                   for g, _ in simples]
    assert sum(map(len, got)) > 100


def brute_force_automorphism_count(n: int, edges) -> int:
    """Vertex permutations that keep the edge multiset, counted by
    backtracking over the vertices in breadth-first order."""
    mult: dict[tuple[int, int], int] = {}
    for u, v in edges:
        key = (min(u, v), max(u, v))
        mult[key] = mult.get(key, 0) + 1
    adjacent = [set() for _ in range(n)]
    for u, v in mult:
        adjacent[u].add(v)
        adjacent[v].add(u)
    order: list[int] = []
    for root in range(n):
        if root not in order:
            order.append(root)
            k = len(order) - 1
            while k < len(order):
                order += sorted(w for w in adjacent[order[k]] if w not in order)
                k += 1
    image: dict[int, int] = {}

    def count(k: int) -> int:
        if k == n:
            return 1
        v = order[k]
        total = 0
        for w in range(n):
            if w in image.values() or len(adjacent[w]) != len(adjacent[v]):
                continue
            if all(mult.get((min(v, x), max(v, x)), 0)
                   == mult.get((min(w, image[x]), max(w, image[x])), 0)
                   for x in order[:k]):
                image[v] = w
                total += count(k + 1)
                del image[v]
        return total

    return count(0)


def closure_order(n: int, gens) -> int:
    """The number of permutations that products of ``gens`` reach."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    for p in frontier:
        for g in gens:
            q = tuple(g[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return len(group)


@pytest.mark.parametrize("bounds", STAGE2_BOUNDS)
def test_automorphism_generators_generate_the_whole_group(bounds):
    """On every stage-1 graph the generators that the canonical search
    returns are automorphisms, and the group they generate is as large
    as a brute-force count says."""
    sizes = []
    for graph, _ in simple_connected_graphs(*bounds):
        gens = canonical_search(graph)[2]
        edges = sorted(graph.edges)
        for g in gens:
            assert sorted(tuple(sorted((g[u], g[v]))) for u, v in edges) == edges
        order = closure_order(graph.n, gens)
        assert order == brute_force_automorphism_count(graph.n, graph.edges), graph
        sizes.append(order)
    # the bounds hold trivial, small and large groups
    assert min(sizes) == 1 and max(sizes) >= 48


def test_automorphism_generators_on_multigraphs():
    """Multiplicities count: a doubled edge of a 4-cycle breaks half its
    symmetry, and a theta with unequal paths keeps only its swaps.
    K_{2,4} has S_2 x S_4 from two twin classes."""
    c4 = AdGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    doubled = AdGraph(4, c4.edges + ((0, 1),))
    theta = AdGraph(5, ((0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1), (0, 4)))
    k24 = AdGraph(6, tuple((u, v) for u in (0, 1) for v in range(2, 6)))
    for graph, order in ((c4, 8), (doubled, 2), (theta, 2), (k24, 48)):
        assert closure_order(graph.n, canonical_search(graph)[2]) == order
        assert brute_force_automorphism_count(graph.n, graph.edges) == order


def test_stage2_makes_no_canonical_form_call(monkeypatch):
    """``connected_atoms(8, 16, 4)`` searches exactly as often as a
    separate ``simple_connected_graphs(8, 16, 4)`` does: stage 2 reads
    the generators stage 1 kept and runs no canonical search."""
    calls = []
    real = families.canonical_search

    def counting(graph):
        calls.append(graph)
        return real(graph)

    monkeypatch.setattr(families, "canonical_search", counting)
    monkeypatch.setattr(census_module, "canonical_search", counting)
    simple_connected_graphs(8, 16, 4)
    stage1 = len(calls)
    calls.clear()
    atoms = connected_atoms(8, 16, 4)
    assert len(calls) == stage1 > 0
    assert len(atoms) == 399


@pytest.mark.parametrize("bounds,calls", [((10, 10, 2), 148), ((8, 16, 4), 222)],
                         ids=["10-10-2", "8-16-4"])
def test_stage1_canonicalises_one_neighbour_set_per_orbit(monkeypatch, bounds, calls):
    """Stage 1 extends each parent only by the first-tried neighbour set
    of each orbit under the parent's automorphisms, and skips a child
    whose new vertex a deletable vertex outranks, so it canonicalises
    fewer children (649 and 1,096 when every set was tried, 369 and 666
    with the orbit prune alone, 240 and 307 when the rank was the degree
    alone); the output is pinned against the unpruned oracle above."""
    counted = []
    real = census_module.canonical_search

    def counting(graph):
        counted.append(graph)
        return real(graph)

    monkeypatch.setattr(census_module, "canonical_search", counting)
    simple_connected_graphs(*bounds)
    assert len(counted) == calls


@pytest.mark.parametrize("bounds,skips,nonplanar", [
    ((10, 10, 2), 221, 0),
    ((8, 16, 4), 444, 22),
], ids=["10-10-2", "8-16-4"])
def test_skipped_children_are_kept_classes_or_nonplanar(
        monkeypatch, bounds, skips, nonplanar):
    """Every child that the rank test skips, so that the canonical
    deletion rule returns without a search, fits the edge budget, so its
    canonical form is a class that its level keeps, or it is not planar:
    a search would have found nothing new.  The counts show that the
    test does skip."""
    skipped = []
    searched = []
    real_rule = census_module._canonical_deletion
    real_search = census_module.canonical_search

    def search(graph):
        searched.append(graph)
        return real_search(graph)

    def rule(*args):
        before = len(searched)
        found = real_rule(*args)
        if len(searched) == before:
            skipped.append(_child(*args))
        return found

    monkeypatch.setattr(census_module, "canonical_search", search)
    monkeypatch.setattr(census_module, "_canonical_deletion", rule)
    kept = {(g.n, g.edges) for g, _ in simple_connected_graphs(*bounds)}
    planar = [nx.check_planarity(nx.Graph(g.edges))[0] for g in skipped]
    assert all(canonical_form(g) in kept
               for g, is_planar in zip(skipped, planar) if is_planar)
    assert (len(skipped), planar.count(False)) == (skips, nonplanar)


@pytest.mark.parametrize("bounds,accepted,rejected", [
    ((10, 10, 2), 138, 10),
    ((8, 16, 4), 212, 10),
], ids=["10-10-2", "8-16-4"])
def test_stage1_accepts_each_class_exactly_once(monkeypatch, bounds, accepted,
                                                rejected):
    """Every child that the canonical deletion rule accepts has a
    canonical form that no earlier accepted child had, and only accepted
    children are tested for planarity, so each class is tested once.
    The orbit half of the rule rejects searched children too: the rule
    does not hold vacuously."""
    verdicts = []
    forms = []
    tested = []
    searched = []
    real_rule = census_module._canonical_deletion
    real_search = census_module.canonical_search
    real_planar = census_module._is_planar_bipartite

    def search(graph):
        searched.append(graph)
        return real_search(graph)

    def rule(*args):
        before = len(searched)
        found = real_rule(*args)
        if len(searched) > before:
            verdicts.append(found is not None)
        if found is not None:
            forms.append(canonical_form(_child(*args)))
        return found

    def planar(n, edges):
        tested.append(canonical_form(AdGraph(n, edges)))
        return real_planar(n, edges)

    monkeypatch.setattr(census_module, "canonical_search", search)
    monkeypatch.setattr(census_module, "_canonical_deletion", rule)
    monkeypatch.setattr(census_module, "_is_planar_bipartite", planar)
    simple_connected_graphs(*bounds)
    assert len(set(forms)) == len(forms) == accepted
    assert tested == forms
    assert verdicts.count(False) == rejected


def _child(edges, deg, adj, nbrs) -> AdGraph:
    """The child that ``census._canonical_deletion`` decides from these
    arguments: the parent with a new vertex joined to ``nbrs``."""
    return AdGraph(len(adj) + 1, edges + tuple((u, len(adj)) for u in nbrs))


def _count_calls(monkeypatch, name: str) -> list[tuple]:
    """Record the arguments of every call to ``census.<name>``."""
    calls = []
    real = getattr(census_module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(census_module, name, counting)
    return calls


@pytest.mark.parametrize("bounds,children", [
    ((10, 10, 2), 369),
    ((8, 16, 4), 666),
], ids=["10-10-2", "8-16-4"])
def test_deletion_keys_computed_once_per_child(monkeypatch, bounds, children):
    """Each child that reaches the canonical deletion rule has its
    vertex keys computed once, from its own degrees, for the test before
    the search and the ranking after it alike, and only at vertices of
    degree at least the new vertex's, where they equal the keys computed
    from the whole child graph."""
    rules = _count_calls(monkeypatch, "_canonical_deletion")
    keys = _count_calls(monkeypatch, "_deletion_keys")
    simple_connected_graphs(*bounds)
    assert len(keys) == len(rules) == children
    for (edges, deg, adj, nbrs), (child_deg, child_adj, least) in zip(rules, keys):
        child = _child(edges, deg, adj, nbrs)
        assert child_deg == child.degrees() and least == len(nbrs)
        whole = _graph_deletion_keys(child)
        assert census_module._deletion_keys(child_deg, child_adj, least) == [
            (w, key) for w, key in enumerate(whole) if key[0] >= least]


@pytest.mark.parametrize("bounds,asked", [
    ((10, 10, 2), 653),
    ((8, 16, 4), 853),
], ids=["10-10-2", "8-16-4"])
def test_new_vertex_never_tested_for_deletability(monkeypatch, bounds, asked):
    """The new vertex of a child is deletable, since its parent is
    connected, so the rule never asks about it; each question is one
    breadth-first search, 1.8 / 1.3 per child that reaches the rule."""
    calls = _count_calls(monkeypatch, "_deletable")
    simple_connected_graphs(*bounds)
    assert all(w != len(adj) - 1 for adj, w in calls)
    assert len(calls) == asked


@pytest.mark.parametrize("bounds", [(10, 10), (8, 16, 4)])
def test_atoms_are_valid(bounds):
    """Every atom, the single vertex included, passes ``validate_adg``,
    so the census may run the genus recursion on its edges as they
    are."""
    atoms = connected_atoms(*bounds)
    assert len(atoms) > 100
    for atom in atoms:
        assert atom.rotations is None
        validate_adg(atom)


@st.composite
def connected_bipartite_graphs(draw):
    """A random spanning tree, grown vertex by vertex, plus random edges
    across its bipartition."""
    n = draw(st.integers(min_value=2, max_value=10))
    side = [0]
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        side.append(1 - side[u])
        edges.add((u, v))
    across = [(u, v) for u, v in itertools.combinations(range(n), 2)
              if side[u] != side[v]]
    edges |= set(draw(st.lists(st.sampled_from(across), max_size=12)))
    return AdGraph(n, tuple(sorted(edges)))


@settings(max_examples=300, deadline=None)
@given(connected_bipartite_graphs())
def test_deleting_a_vertex_never_raises_the_need_bound(graph):
    """The lemma behind the prune: every connected one-vertex-smaller
    subgraph has need bound at most the graph's."""
    for w in range(graph.n):
        rest = [v for v in range(graph.n) if v != w]
        relabel = {v: i for i, v in enumerate(rest)}
        sub = AdGraph(graph.n - 1, tuple(
            (relabel[u], relabel[v]) for u, v in graph.edges if w not in (u, v)))
        if len(sub.components()) != 1:
            continue
        for min_degree in (2, 4):
            assert need_bound(sub, min_degree) <= need_bound(graph, min_degree)


def _adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _decide(graph: AdGraph) -> tuple | None:
    """``census._canonical_deletion`` on ``graph`` as a child: the graph
    without its last vertex, as arrays, and that vertex's neighbours."""
    new = graph.n - 1
    parent = AdGraph(new, tuple(e for e in graph.edges if new not in e))
    nbrs = tuple(sorted(u for u, v in graph.edges if v == new))
    return census_module._canonical_deletion(
        parent.edges, parent.degrees(), _adjacency(new, parent.edges), nbrs)


def _accepted_deletions(graph: AdGraph) -> set[int]:
    """The deletable vertices of top degree among the deletable ones
    whose move to the last place the canonical deletion rule accepts."""
    deg = graph.degrees()
    adj = _adjacency(graph.n, graph.edges)
    deletable = [w for w in range(graph.n) if census_module._deletable(adj, w)]
    top = max(deg[w] for w in deletable)
    accepted = set()
    for w in deletable:
        if deg[w] < top:
            continue
        order = [v for v in range(graph.n) if v != w] + [w]
        moved = graph.relabeled([order.index(v) for v in range(graph.n)])
        if _decide(moved) is not None:
            accepted.add(w)
    return accepted


@settings(max_examples=300, deadline=None)
@given(connected_bipartite_graphs())
def test_deletable_matches_components(graph):
    """The rule's breadth-first search calls a vertex deletable exactly
    when a union-find over the other vertices' edges leaves two
    components: the vertex alone and the rest."""
    adj = _adjacency(graph.n, graph.edges)
    for w in range(graph.n):
        rest = [e for e in graph.edges if w not in e]
        assert census_module._deletable(adj, w) == (
            perm.components(graph.n, rest)[1] == 2)


def _marked(graph: AdGraph, w: int) -> AdGraph:
    """``graph`` with a new vertex joined to ``w`` by its only double
    edge, so that an isomorphism between two marked copies of a simple
    graph is an automorphism taking one marked vertex to the other."""
    return AdGraph(graph.n + 1, graph.edges + ((w, graph.n),) * 2)


@settings(max_examples=150, deadline=None)
@given(connected_bipartite_graphs(), st.data())
def test_canonical_deletion_accepts_one_orbit(graph, data):
    """Of the deletable vertices of top degree, moved last in turn, the
    rule accepts exactly one orbit of the automorphism group (found by
    the backtracking oracle), and a relabelled copy accepts its image."""
    accepted = _accepted_deletions(graph)
    w = min(accepted)
    orbit = {x for x in range(graph.n)
             if find_isomorphism(_marked(graph, w), _marked(graph, x)) is not None}
    assert accepted == orbit
    perm = data.draw(st.permutations(range(graph.n)))
    assert _accepted_deletions(graph.relabeled(perm)) == {perm[x] for x in accepted}


def test_repeated_queries_agree_and_reuse_nothing(monkeypatch):
    """Two runs of one query give equal output, and the second makes as
    many canonical searches as the first: nothing of the first run is
    reused, so each query is deterministic on its own."""
    searches = _count_calls(monkeypatch, "canonical_search")

    def stage1():
        return [(g.n, g.edges, gens) for g, gens in simple_connected_graphs(10, 10)]

    def grouped():
        filt = CensusFilter(max_vertices=8, max_edges=16, allow_isolated=False)
        return [(c.family, c.parameters, c.contracted.edges,
                 [(g.n, g.edges) for g in c.members])
                for c in census(3, filt)]

    for run in (stage1, grouped):
        searches.clear()
        first = run()
        counted = len(searches)
        searches.clear()
        assert run() == first
        assert len(searches) == counted > 0


def test_genus1_census_classes():
    classes = census(1, CensusFilter(max_vertices=6, max_edges=12))
    assert len(classes) == 1
    assert classes[0].family == "doubled-even-cycle"
    # members are exactly C2^2, C4^2, C6^2
    sizes = sorted((m.n, m.edge_count) for m in classes[0].members)
    assert sizes == [(2, 4), (4, 8), (6, 12)]


def test_genus0_reduced_census_single_vertex_only():
    classes = census(0, CensusFilter(max_vertices=4, max_edges=8))
    assert len(classes) == 1
    rep = classes[0].representative
    assert (rep.n, rep.edge_count) == (1, 0)
    assert classes[0].family == "single-vertex"


def test_genus1_reduced_filter_gives_doubled_even_cycles():
    from classify_oracle import recognize_doubled_cycle

    graphs = enumerate_adgs(CensusFilter(
        max_vertices=4, max_edges=8, require_reduced=True, genus_equals=1,
    ))
    assert graphs
    for g in graphs:
        length = recognize_doubled_cycle(AdGraph(g.n, g.edges))
        assert length is not None and length % 2 == 0


def test_canonical_form_matches_isomorphic_on_atoms():
    """Equal certificates exactly when the backtracking oracle finds an
    isomorphism, on every pair of connected atoms with the same vertex
    and edge counts, and on each atom against a shuffled copy of
    itself."""
    rng = random.Random(8)
    by_size: dict[tuple[int, int], list] = {}
    for atom in connected_atoms(8, 14):
        cert = canonical_form(atom)
        perm = list(range(atom.n))
        rng.shuffle(perm)
        shuffled = atom.relabeled(perm)
        assert canonical_form(shuffled) == cert
        assert find_isomorphism(atom, shuffled) is not None
        by_size.setdefault((atom.n, atom.edge_count), []).append((atom, cert))
    pairs = 0
    for same_size in by_size.values():
        for (g, cert_g), (h, cert_h) in itertools.combinations(same_size, 2):
            found = find_isomorphism(g, h) is not None
            assert (cert_g == cert_h) == found, (g, h)
            pairs += 1
    assert pairs > 500_000


# --- assembly from classified atoms -------------------------------------------

def _no_degree_two(graph: AdGraph) -> bool:
    return 2 not in graph.degrees()


# each query is a filter and a test that both lists are cut down by
ORACLE_QUERIES = [
    (CensusFilter(8, 12), None),
    (CensusFilter(10, 10), None),
    (CensusFilter(8, 16, require_reduced=True), None),
    # the unions of atoms of minimum degree 4 and isolated vertices
    (CensusFilter(8, 16), _no_degree_two),
] + [
    (replace(base, genus_equals=genus, allow_isolated=isolated), None)
    for base in (CensusFilter(8, 16, require_reduced=True), CensusFilter(10, 12))
    for genus in range(4)
    for isolated in (True, False)
]


def _query_id(query: tuple) -> str:
    filt, keep = query
    tags = [f"{filt.max_vertices}-{filt.max_edges}"]
    if filt.require_reduced:
        tags.append("require_reduced")
    if keep is _no_degree_two:
        tags.append("no-deg2")
    if filt.genus_equals is not None:
        tags.append(f"genus{filt.genus_equals}")
        tags.append("isolated" if filt.allow_isolated else "no-isolated")
    return "-".join(tags)


@pytest.mark.parametrize("query", ORACLE_QUERIES, ids=_query_id)
def test_enumerate_matches_the_filtering_oracle(query):
    """Assembling from classified atoms gives the graphs that building
    every graph and then filtering it gave, in the same order."""
    filt, keep = query

    def rows(graphs):
        return [(g.n, g.edges) for g in graphs
                if keep is None or keep(g)]

    assert rows(enumerate_adgs(filt)) == rows(filtering_enumerate_adgs(filt))


@pytest.mark.parametrize("filt,calls", [
    (CensusFilter(10, 12, genus_equals=0), 667),
    (CensusFilter(10, 10), 0),
], ids=["genus0-10-12", "any-genus-10-10"])
def test_genus_runs_once_per_atom(monkeypatch, filt, calls):
    """The genus recursion runs on each atom that has edges, once, and
    not at all when the query names no genus."""
    seen = _count_calls(monkeypatch, "_genus_recursion")
    enumerate_adgs(filt)
    assert len(seen) == calls
    if calls:
        atoms = connected_atoms(filt.max_vertices, filt.max_edges)
        assert calls == sum(1 for a in atoms if a.edge_count)


# computed once for every example of ``disjoint_parts``
ATOMS_8_12 = connected_atoms(8, 12)


@st.composite
def disjoint_parts(draw):
    """One to three graphs, each a connected atom at (8, 12), the single
    vertex among them, or a random decomposition graph of the corpus."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            parts.append(draw(st.sampled_from(ATOMS_8_12)))
        else:
            graph = corpus.random_adgraph(random.Random(draw(st.integers(0, 2**32))))
            parts.append(AdGraph(graph.n, graph.edges))
    return parts


def _genus(graph: AdGraph) -> int:
    return turaev_genus_graph(validate_adg(graph))


@settings(max_examples=150, deadline=None)
@given(disjoint_parts())
def test_genus_of_a_disjoint_union_is_the_sum(parts):
    union = functools.reduce(AdGraph.disjoint_union, parts)
    assert _genus(union) == sum(map(_genus, parts))


@settings(max_examples=150, deadline=None)
@given(disjoint_parts())
def test_a_disjoint_union_is_reduced_when_every_part_is(parts):
    """The single vertex is reduced on its own and nowhere else."""
    union = functools.reduce(AdGraph.disjoint_union, parts)
    has_vertex = any(p.n == 1 and not p.edges for p in parts)
    expected = all(map(is_reduced, parts)) and (len(parts) == 1 or not has_vertex)
    assert is_reduced(union) == expected
