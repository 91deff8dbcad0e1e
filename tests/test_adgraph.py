import dataclasses
import gc
import importlib
import random
import re
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from turaevgenus import adgraph, corpus, perm, ribbon
from turaevgenus.adgraph import (
    AdGraph,
    _genus_recursion,
    check_sphere_embedding,
    find_bipartition,
    half_edges,
    nullity,
    parse_graph_file,
    planar_rotations,
    simplify,
    to_ribbon,
    turaev_genus_graph,
    validate_adg,
    write_graph_file,
)
from turaevgenus.census import CensusFilter, enumerate_adgs
from turaevgenus.construct import embed_planar, realize_diagram
from turaevgenus.decompose import decompose
from turaevgenus.errors import (
    HasLoopError,
    MalformedLineError,
    NotBipartiteError,
    NotEmbeddedError,
    NotPlanarError,
    NotSphericalError,
    OddDegreeError,
    TuraevError,
)
from turaevgenus.families import (
    c4_legs,
    classify_genus,
    doubled_cycle,
    doubled_theta,
    doubled_tree,
    isolated_vertices,
    k4_doubled_paths,
    k4_two_sum,
)
from turaevgenus.ribbon import ribbon_genus, twist_all

from planarity_oracle import whole_graph_rotations


def hub_and_chains_graph() -> AdGraph:
    """Two degree-4 hubs and four chains of two doubled pairs, bridged
    by single edges: 14 vertices, 28 edges, Turaev genus five."""
    chains = [(2, 3, 4), (5, 6, 7), (8, 9, 10), (11, 12, 13)]
    singles = [
        (0, 2), (2, 5), (5, 1), (1, 7), (7, 4), (4, 0),
        (0, 8), (8, 11), (11, 1), (1, 13), (13, 10), (10, 0),
    ]
    doubles = []
    for o, m, i in chains:
        doubles += [(o, m), (o, m), (m, i), (m, i)]
    edges = tuple(sorted(tuple(sorted(e)) for e in singles + doubles))
    return AdGraph(14, edges)


def test_loops_rejected():
    with pytest.raises(HasLoopError):
        AdGraph(2, ((0, 0),))


def test_validate_c22():
    v = validate_adg(doubled_cycle(2))
    assert v.rotations == ((0, 1, 2, 3), (3, 2, 1, 0))
    assert find_bipartition(v) == (0, 1)


def test_validate_odd_cycle():
    with pytest.raises(NotBipartiteError) as exc:
        validate_adg(doubled_cycle(3))
    assert len(exc.value.cycle) % 2 == 1


def test_validate_odd_degree():
    with pytest.raises(OddDegreeError):
        validate_adg(AdGraph(2, ((0, 1),)))


def test_validate_nonplanar():
    # K33 with every edge doubled: even degrees, bipartite, not planar
    edges = []
    for u in range(3):
        for v in range(3, 6):
            edges += [(u, v), (u, v)]
    with pytest.raises(NotPlanarError):
        validate_adg(AdGraph(6, tuple(edges)))


def doubled_k33(with_rotations: bool) -> AdGraph:
    edges = []
    for u in range(3):
        for v in range(3, 6):
            edges += [(u, v), (u, v)]
    rotations = None
    if with_rotations:
        # any rotation system of a non-planar graph fails the Euler check
        rotations = tuple(
            tuple(i for i, e in enumerate(edges) if v in e) for v in range(6)
        )
    return AdGraph(6, tuple(edges), rotations=rotations)


#: built, and embedded, before any call is counted
C6 = embed_planar(validate_adg(doubled_cycle(6)))


def test_validate_nonplanar_rotation_system():
    with pytest.raises(NotPlanarError):
        validate_adg(doubled_k33(with_rotations=True))


def test_rotation_system_proves_planarity(planarity_calls):
    nonplanar = doubled_k33(with_rotations=True)
    assert C6.rotations is not None
    validate_adg(C6)
    with pytest.raises(NotPlanarError):
        validate_adg(nonplanar)
    assert planarity_calls == []
    validate_adg(AdGraph(C6.n, C6.edges))
    assert len(planarity_calls) == 1


def test_isolated_vertices_skip_the_search(planarity_calls):
    # 20,000 isolated vertices are embedded without a search; any
    # component with an edge is searched, four vertices or not
    c44 = doubled_cycle(4)
    isolated = parse_graph_file("v 20000\n")
    assert validate_adg(isolated).rotations == ((),) * 20000
    assert turaev_genus_graph(validate_adg(isolated)) == 0
    assert classify_genus(isolated).genus == 0
    assert planarity_calls == []
    validate_adg(AdGraph(c44.n, c44.edges))
    assert len(planarity_calls) == 1
    with pytest.raises(NotPlanarError):
        validate_adg(doubled_k33(with_rotations=False))
    assert len(planarity_calls) == 2


def test_planar_graph_with_torus_rotations():
    # four parallel edges are planar; this rotation system puts them on
    # the torus, and the error says so rather than calling them non-planar
    graph = AdGraph(2, ((0, 1),) * 4, rotations=((0, 1, 2, 3), (0, 2, 1, 3)))
    with pytest.raises(NotSphericalError) as exc:
        validate_adg(graph)
    assert isinstance(exc.value, NotPlanarError)
    assert str(exc.value) == (
        "the rotation system does not embed component [0, 1] in the sphere")
    validate_adg(AdGraph(graph.n, graph.edges))


def test_realize_path_searches_once(planarity_calls):
    embedded = embed_planar(validate_adg(AdGraph(C6.n, C6.edges)))
    assert embedded.rotations is not None
    assert len(planarity_calls) == 1


def test_classify_genus_reads_the_embedding(planarity_calls):
    assert classify_genus(C6).family == "doubled-even-cycle"
    assert planarity_calls == []


@pytest.mark.parametrize("build, family", [
    (lambda: c4_legs(2, 0, 2, 0), "four-cycle-legs"),
    (lambda: doubled_tree((0, 0, 1, 1)), "doubled-tree"),
    (lambda: doubled_theta(2, 2, 2), "doubled-theta"),
])
def test_classify_plain_family_searches_once(planarity_calls, build, family):
    # validation's search is the only one: the rebuilt family graph that
    # confirms the shape, and the genus-2 form table, embed nothing
    assert classify_genus(build()).family == family
    assert len(planarity_calls) == 1


@pytest.mark.parametrize("seed", range(20))
def test_validate_attaches_planar_rotations(seed):
    graph = corpus.random_adgraph(random.Random(seed), max_edges=16)
    bare = AdGraph(graph.n, graph.edges)
    validated = validate_adg(bare)
    check_sphere_embedding(validated)
    assert validated.rotations == planar_rotations(bare).rotations


def test_first_nonplanar_component_named():
    # a doubled 4-cycle, a doubled K3,3 on vertices 4-9, an isolated vertex
    graph = doubled_cycle(4).disjoint_union(
        doubled_k33(with_rotations=False)
    ).disjoint_union(AdGraph(1, ()))
    message = "component [4, 5, 6, 7, 8, 9] is not planar"
    with pytest.raises(NotPlanarError, match=re.escape(message) + "$"):
        validate_adg(graph)
    with pytest.raises(NotPlanarError, match=re.escape(message) + "$"):
        planar_rotations(graph)


def _shuffled_union(rng: random.Random, pieces: list[AdGraph]) -> AdGraph:
    """Disjoint union of 1-4 of ``pieces``, vertices relabelled across
    the union and edges shuffled."""
    union = AdGraph(0, ())
    for _ in range(rng.randint(1, 4)):
        union = union.disjoint_union(rng.choice(pieces))
    relabel = list(range(union.n))
    rng.shuffle(relabel)
    edges = list(union.relabeled(relabel).edges)
    rng.shuffle(edges)
    return AdGraph(union.n, tuple(edges))


def test_per_component_search_matches_whole_graph_search():
    rng = random.Random(8)
    pieces = [corpus.random_adgraph(rng, max_edges=12) for _ in range(200)]
    multi = 0
    for _ in range(1000):
        graph = _shuffled_union(rng, pieces)
        multi += graph.component_count() > 1
        assert planar_rotations(graph).rotations == whole_graph_rotations(graph)
    assert multi > 500


#: edge 2 listed twice at vertex 1 and never at vertex 2
EDGE_TWICE_AT_ONE_END = "v 2\ne 1 2\ne 1 2\nrot 1 : 1 2 2\nrot 2 : 1\n"
#: edge 2 listed once overall
EDGE_MISSING = "v 2\ne 1 2\ne 1 2\nrot 1 : 1 2\nrot 2 : 1\n"


@pytest.mark.parametrize("text", [EDGE_TWICE_AT_ONE_END, EDGE_MISSING])
def test_rotation_entries_checked_against_endpoints(text):
    with pytest.raises(NotEmbeddedError):
        parse_graph_file(text)
    graph = AdGraph(2, ((0, 1), (0, 1)), rotations=((0, 1, 1), (0,)))
    with pytest.raises(NotEmbeddedError):
        validate_adg(graph)
    with pytest.raises(NotEmbeddedError):
        to_ribbon(graph)


def test_rotation_of_unknown_vertex_rejected():
    with pytest.raises(MalformedLineError):
        parse_graph_file("v 2\ne 1 2\ne 1 2\nrot 1 : 1 2\nrot 2 : 2 1\nrot 5 : 1\n")


def test_rotation_with_unknown_edge_rejected():
    graph = AdGraph(2, ((0, 1), (0, 1)), rotations=((0, 1, 2), (0, 1)))
    with pytest.raises(NotEmbeddedError):
        validate_adg(graph)


def test_genus_isolated_vertices():
    v = validate_adg(AdGraph(5, ()))
    assert turaev_genus_graph(v) == 0


def test_genus_needs_validation():
    # a plain graph is validated on demand, not refused
    assert turaev_genus_graph(doubled_cycle(2)) == 1
    with pytest.raises(NotBipartiteError):
        turaev_genus_graph(AdGraph(3, ((0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2))))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
def test_doubled_even_cycles_genus_one(k):
    assert turaev_genus_graph(validate_adg(doubled_cycle(2 * k))) == 1


def test_five_genus_two_values():
    reps = [
        doubled_cycle(2).disjoint_union(doubled_cycle(2)),
        k4_doubled_paths(2, 2),
        k4_two_sum(2, 2),
    ]
    for rep in reps:
        assert turaev_genus_graph(validate_adg(AdGraph(rep.n, rep.edges))) == 2


def test_figure_genus_five():
    g = hub_and_chains_graph()
    assert (g.n, g.edge_count) == (14, 28)
    assert turaev_genus_graph(validate_adg(g)) == 5


def test_randomized_choices_agree():
    g = validate_adg(hub_and_chains_graph())
    for seed in range(8):
        assert turaev_genus_graph(g, random.Random(seed)) == 5


def test_simplify_and_nullity():
    c22 = doubled_cycle(2)
    s = simplify(c22)
    assert (s.n, s.edge_count) == (2, 1)
    assert nullity(s) == 0

    k4 = k4_doubled_paths(2, 2)
    s = simplify(k4)
    assert (s.n, s.edge_count) == (6, 8)
    assert nullity(s) == 3
    assert 3 * 2 >= nullity(s)

    fig = simplify(hub_and_chains_graph())
    assert (fig.n, fig.edge_count) == (14, 20)
    assert nullity(fig) == 7
    assert nullity(AdGraph(3, ())) == 0


def test_graph_file_round_trip():
    g = embed_planar(validate_adg(k4_doubled_paths(2, 2)))
    assert g.rotations is not None
    text = write_graph_file(g)
    back = parse_graph_file(text)
    assert back.edges == g.edges
    assert back.rotations == g.rotations


def test_graph_file_errors():
    with pytest.raises(HasLoopError):
        parse_graph_file("v 2\ne 1 1\n")
    with pytest.raises(MalformedLineError):
        parse_graph_file("e 1 2\n")
    with pytest.raises(MalformedLineError):
        parse_graph_file("v 2\ne 1 5\n")
    with pytest.raises(MalformedLineError):
        parse_graph_file("v 2\nfoo\n")


def test_planar_rotations_pass_euler():
    for g in (doubled_cycle(2), k4_doubled_paths(2, 2), hub_and_chains_graph()):
        rotations = planar_rotations(g).rotations
        assert len(rotations) == g.n


def test_twisted_oracle_matches_recursion():
    for g in (doubled_cycle(2), doubled_cycle(4), k4_doubled_paths(2, 2),
              k4_two_sum(2, 2), hub_and_chains_graph()):
        embedded = AdGraph(g.n, g.edges, rotations=planar_rotations(g).rotations)
        validated = validate_adg(AdGraph(g.n, g.edges))
        assert ribbon_genus(twist_all(to_ribbon(embedded))) == \
            turaev_genus_graph(validated)


# -- the worklist recursion against the rescanning one -------------------------

def quadratic_genus_recursion(edge_list, rng=None) -> int:
    """The recursion as first written: every step recounts degrees and
    multiplicities over all edges, relabels every edge on a contraction
    and runs a fresh union-find after each deletion.  O(E^2)."""
    edges = list(edge_list)
    n = 1 + max((max(e) for e in edges), default=0)
    genus = 0
    while edges:
        deg: dict[int, int] = {}
        for u, v in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        deg2 = sorted(v for v, d in deg.items() if d == 2)
        if deg2:
            v = deg2[0] if rng is None else rng.choice(deg2)
            i1, i2 = [i for i, e in enumerate(edges) if v in e]
            a = edges[i1][0] if edges[i1][1] == v else edges[i1][1]
            b = edges[i2][0] if edges[i2][1] == v else edges[i2][1]
            target = a if a == b else min(a, b)
            merged = {v: target, a: target, b: target}
            nxt = []
            for i, (x, y) in enumerate(edges):
                if i in (i1, i2):
                    continue
                x, y = merged.get(x, x), merged.get(y, y)
                assert x != y, "contraction created a loop"
                nxt.append((min(x, y), max(x, y)))
            edges = nxt
        else:
            mult: dict[tuple[int, int], list[int]] = {}
            for i, (u, v) in enumerate(edges):
                mult.setdefault((min(u, v), max(u, v)), []).append(i)
            pairs = sorted(k for k, idx in mult.items() if len(idx) >= 2)
            assert pairs, "no degree-two vertex and no parallel pair"
            u, v = pairs[0] if rng is None else rng.choice(pairs)
            i1, i2 = mult[(u, v)][:2]
            rest = [e for i, e in enumerate(edges) if i != i1 and i != i2]
            comp, _ = perm.components(n, rest)
            if comp[u] == comp[v]:
                genus += 1
            edges = rest
    return genus


def choosers():
    return [None, random.Random(1), random.Random(2)]


def assert_matches_oracle(graph: AdGraph) -> None:
    expected = quadratic_genus_recursion(graph.edges)
    labels = perm.components(graph.n, graph.edges)
    for rng in choosers():
        assert _genus_recursion(graph.edges, labels, rng) == expected, graph
    assert quadratic_genus_recursion(graph.edges, random.Random(3)) == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_recursion_matches_oracle_on_random_adgs(seed):
    assert_matches_oracle(corpus.random_adgraph(random.Random(seed), max_edges=16))


def test_recursion_matches_oracle_on_census():
    graphs = enumerate_adgs(CensusFilter(max_vertices=8, max_edges=12))
    assert len(graphs) > 1000
    genera = set()
    for graph in graphs:
        assert_matches_oracle(graph)
        genera.add(turaev_genus_graph(graph))
    assert genera >= {0, 1, 2, 3}


def test_recursion_scales():
    graph = validate_adg(doubled_cycle(4000))
    start = time.perf_counter()
    assert turaev_genus_graph(graph) == 1
    assert time.perf_counter() - start < 0.5


def test_contraction_creating_a_loop_rejected():
    # the path 0-1-2 plus the edge 0-2: every contraction closes a loop
    with pytest.raises(TuraevError, match="created a loop"):
        _genus_recursion([(0, 1), (1, 2), (0, 2)],
                         perm.components(3, [(0, 1), (1, 2), (0, 2)]))


def test_stuck_recursion_rejected():
    # the simple K_{4,4}: every degree is four and no edge is doubled
    k44 = [(u, v) for u in range(4) for v in range(4, 8)]
    with pytest.raises(TuraevError, match="no degree-two vertex"):
        _genus_recursion(k44, perm.components(8, k44))


# -- validation's arrays: computed once, never carried over -------------------------

def _outcome(fn, *args):
    """``("ok", fn(*args))``, or the type and text of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _ribbon_readers(graph: AdGraph, twisted: bool):
    r = to_ribbon(graph, twisted)
    return (r, ribbon.boundary_count(r), r.component_count(), ribbon.is_orientable(r),
            ribbon.euler_genus(r))


def _answers(graph: AdGraph) -> list:
    """``half_edges``, both ribbon graphs and their readers, the ribbon
    genus and the recursion on ``graph``, or the errors they raise."""
    return [
        _outcome(half_edges, graph),
        _outcome(_ribbon_readers, graph, False),
        _outcome(_ribbon_readers, graph, True),
        _outcome(lambda g: ribbon_genus(to_ribbon(g, True)), graph),
        _outcome(turaev_genus_graph, graph),
    ]


def _hand_built(graph: AdGraph) -> AdGraph:
    return AdGraph(graph.n, graph.edges, rotations=graph.rotations)


def test_derived_graphs_answer_like_fresh_copies():
    """The arrays ``validate_adg`` attaches describe the graph it
    returns and no graph made from it.  The second graph has the same
    vertex count, other edges, another embedding and two components,
    so answers read from the first graph's arrays would differ."""
    first = validate_adg(doubled_cycle(6))
    second = embed_planar(validate_adg(
        doubled_cycle(2).disjoint_union(doubled_cycle(4))))
    assert first.n == second.n and first.rotations is not None
    assert (first.component_count(), second.component_count()) == (1, 2)
    mirrored = tuple(tuple(reversed(rot)) for rot in first.rotations)
    derived = [
        dataclasses.replace(first, rotations=mirrored),
        dataclasses.replace(first, edges=second.edges),
        dataclasses.replace(first, edges=second.edges, rotations=second.rotations),
        first.relabeled([5, 3, 1, 0, 2, 4]),
        first.disjoint_union(second),
        second.disjoint_union(first),
    ]
    revalidated = lambda g: _answers(embed_planar(validate_adg(g)))
    for graph in derived:
        fresh = _hand_built(graph)
        assert _answers(graph) == _answers(fresh), graph
        assert _outcome(revalidated, graph) == _outcome(revalidated, fresh), graph
    # the derived graphs that can answer do, and not as the originals do
    assert _answers(derived[0])[1] != _answers(first)[1]
    assert _answers(derived[2]) == _answers(second)
    assert _answers(derived[2]) != _answers(first)


@pytest.mark.parametrize("graph", [
    doubled_cycle(6),
    doubled_cycle(2).disjoint_union(doubled_cycle(4)),
    hub_and_chains_graph(),
    doubled_theta(1, 3, 3).disjoint_union(isolated_vertices(2)),
])
def test_validated_graph_equals_its_hand_built_copy(graph):
    for validated in (validate_adg(graph), embed_planar(validate_adg(graph))):
        copy = _hand_built(validated)
        assert validated == copy and copy == validated
        assert hash(validated) == hash(copy)
        assert repr(validated) == repr(copy)
        assert {validated, copy} == {copy}


def _parents(rng: random.Random, vertices: int) -> list[int]:
    return [rng.randrange(i) for i in range(1, vertices)]


#: the shapes of the large-inputs benchmark, at a tenth of its sizes
LARGE_SHAPES = [
    doubled_cycle(80),
    doubled_theta(16, 16, 18),
    k4_doubled_paths(24, 24),
    doubled_tree(_parents(random.Random(3), 50)),
    doubled_cycle(6).disjoint_union(doubled_theta(2, 2, 2))
    .disjoint_union(doubled_tree(_parents(random.Random(4), 6)))
    .disjoint_union(isolated_vertices(1)),
]


@pytest.fixture
def array_passes(monkeypatch):
    """The vertex count of every ``perm.components`` call, and the number
    of ``half_edges`` calls, wherever the package makes them."""
    calls = {"components": [], "half_edges": 0}
    real_components, real_half_edges = perm.components, adgraph.half_edges

    def components(n, pairs):
        calls["components"].append(n)
        return real_components(n, pairs)

    def counted_half_edges(graph):
        calls["half_edges"] += 1
        return real_half_edges(graph)

    for module in (perm, ribbon, importlib.import_module("turaevgenus.decompose")):
        monkeypatch.setattr(module, "components", components)
    monkeypatch.setattr(adgraph, "half_edges", counted_half_edges)
    return calls


@pytest.mark.parametrize("shape", range(len(LARGE_SHAPES)))
def test_one_pass_per_graph_from_validation_to_ribbon_genus(array_passes, shape):
    graph = LARGE_SHAPES[shape]
    validated = validate_adg(graph)
    embedded = embed_planar(validated)
    recursion = turaev_genus_graph(validated)
    assert ribbon_genus(to_ribbon(embedded, twisted=True)) == recursion
    assert array_passes == {"components": [graph.n], "half_edges": 1}


def test_one_pass_per_decomposition_graph(array_passes):
    d = realize_diagram(embed_planar(validate_adg(LARGE_SHAPES[-1])))
    array_passes["components"].clear()
    array_passes["half_edges"] = 0
    dec = decompose(d)
    recursion = turaev_genus_graph(dec.graph)
    assert ribbon_genus(to_ribbon(dec.graph, twisted=True)) == recursion
    # the graph's components, then the alternating regions' union-find
    assert array_passes == {
        "components": [dec.graph.n, d.crossing_count], "half_edges": 1}


def test_parse_then_validate_builds_the_arrays_once(array_passes):
    text = write_graph_file(embed_planar(validate_adg(doubled_cycle(6))))
    array_passes["components"].clear()
    array_passes["half_edges"] = 0
    parsed = parse_graph_file(text)
    assert parsed.rotations is not None
    validated = validate_adg(parsed)
    assert validated.rotations == parsed.rotations
    assert array_passes == {"components": [parsed.n], "half_edges": 1}


def test_validating_one_graph_twice_runs_one_union_find(array_passes):
    parsed = parse_graph_file(write_graph_file(doubled_cycle(6)))
    first, second = validate_adg(parsed), validate_adg(parsed)
    assert first is second
    assert turaev_genus_graph(second) == 1
    assert array_passes["components"] == [parsed.n]


# -- validation on demand ----------------------------------------------------------

def _random_plain_graphs(count: int) -> list[AdGraph]:
    rng = random.Random(33)
    return [AdGraph(g.n, g.edges)
            for g in (corpus.random_adgraph(rng, max_edges=12) for _ in range(count))]


#: valid graphs as plain values, with no rotations: random ones
#: stripped of them, and family graphs
PLAIN_GRAPHS = _random_plain_graphs(12) + [
    doubled_cycle(6),
    doubled_theta(1, 3, 3),
    k4_doubled_paths(2, 2),
    k4_two_sum(2, 2),
    c4_legs(1, 0, 2, 1),
    doubled_tree((0, 0, 1, 2)),
    doubled_cycle(2).disjoint_union(isolated_vertices(2)),
]


@pytest.mark.parametrize("graph", PLAIN_GRAPHS)
def test_plain_graphs_answer_like_the_explicit_chain(graph):
    def plain() -> AdGraph:  # a fresh object, with nothing cached
        return AdGraph(graph.n, graph.edges)

    embedded = embed_planar(validate_adg(plain()))
    assert turaev_genus_graph(plain()) == turaev_genus_graph(validate_adg(plain()))
    assert embed_planar(plain()) == embedded
    assert realize_diagram(plain()).crossings == realize_diagram(embedded).crossings


#: odd degree; a doubled triangle, even but not bipartite; doubled K3,3,
#: bipartite with even degrees but not planar; four parallel edges, on
#: the torus by their rotation system
INVALID_GRAPHS = [
    (AdGraph(3, ((0, 1), (1, 2), (1, 2))), OddDegreeError),
    (AdGraph(3, ((0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2))), NotBipartiteError),
    (AdGraph(6, tuple((u, v) for u in range(3) for v in range(3, 6)) * 2),
     NotPlanarError),
    (AdGraph(2, ((0, 1),) * 4, rotations=((0, 1, 2, 3), (0, 2, 1, 3))),
     NotSphericalError),
]


@pytest.mark.parametrize("graph, error", INVALID_GRAPHS)
@pytest.mark.parametrize("call", [
    turaev_genus_graph, embed_planar, realize_diagram, classify_genus])
def test_invalid_graphs_raise_on_every_call(graph, error, call):
    for _ in range(2):  # a failure is not cached
        with pytest.raises(error):
            call(graph)
    assert "_valid" not in vars(graph)


@pytest.fixture
def searches(monkeypatch):
    """The number of ``find_bipartition`` and ``_left_right`` calls the
    package makes."""
    calls = {"find_bipartition": 0, "_left_right": 0}
    for name in calls:
        real = getattr(adgraph, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(adgraph, name, counted)
    return calls


def test_validation_runs_once_per_graph_object(searches):
    text = write_graph_file(doubled_cycle(6))
    parsed = parse_graph_file(text)
    first, second = validate_adg(parsed), validate_adg(parsed)
    assert first is second and first.rotations is not None
    assert searches == {"find_bipartition": 1, "_left_right": 1}
    # a replaced graph is a new object, validated afresh
    turned = dataclasses.replace(parsed, edges=parsed.edges[::-1])
    assert validate_adg(turned).edges == parsed.edges[::-1]
    assert searches == {"find_bipartition": 2, "_left_right": 2}
    # equality, hash and repr ignore the cache
    fresh = parse_graph_file(text)
    assert "_valid" in vars(parsed) and "_valid" not in vars(fresh)
    assert parsed == fresh and hash(parsed) == hash(fresh)
    assert repr(parsed) == repr(fresh)


def test_classify_after_validate_searches_once(searches):
    parsed = parse_graph_file(write_graph_file(doubled_cycle(6)))
    validate_adg(parsed)
    assert classify_genus(parsed).family == "doubled-even-cycle"
    assert searches == {"find_bipartition": 1, "_left_right": 1}


def test_validity_is_no_field_of_a_graph():
    """A graph is validated only by ``validate_adg``: no field vouches
    for it, and a third positional argument is refused rather than read
    as a rotation system."""
    assert {f.name for f in dataclasses.fields(AdGraph)} == {"n", "edges", "rotations"}
    doubled_triangle = INVALID_GRAPHS[1][0]
    with pytest.raises(TypeError):
        AdGraph(3, doubled_triangle.edges, (0, 1, 1))


@pytest.mark.parametrize("graph", [
    doubled_cycle(2),
    doubled_cycle(2).disjoint_union(isolated_vertices(2)),
    doubled_cycle(6),
])
def test_a_validated_graph_is_its_own_answer(searches, graph):
    """``validate_adg`` returns one embedded object, small components
    or not, that validates to itself; genus and realization on it
    search nothing again."""
    validated = validate_adg(graph)
    assert validate_adg(graph) is validated and validated.rotations is not None
    assert validate_adg(validated) is validated
    assert searches == {"find_bipartition": 1, "_left_right": 1}
    turaev_genus_graph(validated)
    realize_diagram(validated)
    assert searches == {"find_bipartition": 1, "_left_right": 1}


def test_a_validated_graph_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        graph = doubled_cycle(6)
        validated = validate_adg(graph)
        assert validate_adg(validated) is validated
        refs = weakref.ref(graph), weakref.ref(validated)
        del graph, validated
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
