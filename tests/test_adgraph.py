import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from turaevgenus import corpus, perm
from turaevgenus.adgraph import (
    AdGraph,
    _genus_recursion,
    check_sphere_embedding,
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
from turaevgenus.construct import embed_planar
from turaevgenus.errors import (
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
from turaevgenus.families import (
    c4_legs,
    classify_genus,
    doubled_cycle,
    doubled_theta,
    doubled_tree,
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
    assert v.bipartition is not None
    assert sorted(v.bipartition) == [0, 1]


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


def test_small_components_skip_the_search(planarity_calls):
    # 20,000 isolated vertices, and components of at most four vertices
    # in general, are planar without a test
    c44 = doubled_cycle(4)
    isolated = parse_graph_file("v 20000\n")
    assert turaev_genus_graph(validate_adg(isolated)) == 0
    assert classify_genus(isolated).genus == 0
    validate_adg(AdGraph(c44.n, c44.edges))
    assert planarity_calls == []
    with pytest.raises(NotPlanarError):
        validate_adg(doubled_k33(with_rotations=False))
    assert len(planarity_calls) == 1


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
    if all(len(comp) <= 4 for comp in bare.components()):
        assert validated.rotations is None
        return
    check_sphere_embedding(validated)
    assert validated.rotations == planar_rotations(bare)


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
        assert planar_rotations(graph) == whole_graph_rotations(graph)
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
    with pytest.raises(NotValidatedError):
        turaev_genus_graph(doubled_cycle(2))


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
        rotations = planar_rotations(g)
        assert len(rotations) == g.n


def test_twisted_oracle_matches_recursion():
    for g in (doubled_cycle(2), doubled_cycle(4), k4_doubled_paths(2, 2),
              k4_two_sum(2, 2), hub_and_chains_graph()):
        embedded = AdGraph(g.n, g.edges, rotations=planar_rotations(g))
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
    for rng in choosers():
        assert _genus_recursion(graph.edges, rng) == expected, graph
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
        _genus_recursion([(0, 1), (1, 2), (0, 2)])


def test_stuck_recursion_rejected():
    # the simple K_{4,4}: every degree is four and no edge is doubled
    k44 = [(u, v) for u in range(4) for v in range(4, 8)]
    with pytest.raises(TuraevError, match="no degree-two vertex"):
        _genus_recursion(k44)
