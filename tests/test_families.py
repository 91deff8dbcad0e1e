import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from turaevgenus import corpus, families
from turaevgenus.adgraph import (
    MAX_GRAPH_VERTICES, AdGraph, turaev_genus_graph, validate_adg,
)
from turaevgenus.census import CensusFilter, enumerate_adgs
from turaevgenus.errors import (
    BadParametersError,
    InvalidSiteError,
    MalformedLineError,
    TuraevError,
)
from turaevgenus.families import (
    Classification,
    canonical_contract,
    canonical_form,
    classify_genus,
    contractible_sites,
    doubled_cycle,
    doubled_path,
    doubled_path_contract,
    doubled_path_extend,
    doubled_pendant,
    doubled_theta,
    doubled_tree,
    is_reduced,
    isolated_vertices,
    isomorphic,
    c4_legs,
    k4_doubled_paths,
    k4_one_path,
    k4_tilde,
    k4_tilde_two_sum,
    k4_two_sum,
    one_sum_components,
    random_genus0,
    replay_script,
    two_path_extend,
)
from turaevgenus.perm import components
from turaevgenus.verify import stepwise_contract

from iso_oracle import _mult_adj, find_isomorphism
from refine_oracle import round_refine

C22 = doubled_cycle(2)


# --- constructors -----------------------------------------------------------

def test_doubled_path_zero_is_vertex():
    g = doubled_path(0)
    assert (g.n, g.edge_count) == (1, 0)


def test_doubled_cycle_two():
    assert (C22.n, C22.edge_count) == (2, 4)
    assert turaev_genus_graph(validate_adg(C22)) == 1


def test_k4_two_sum_shape():
    g = k4_two_sum(2, 2)
    assert (g.n, g.edge_count) == (8, 16)
    # independent edge list: two K4(2) pieces sharing the hub pair {0, 1}
    # with the hub edge deleted
    hand = []
    for base in (2, 5):  # corner pairs (2,3) and (5,6), midpoints 4 and 7
        c1, c2, mid = base, base + 1, base + 2
        hand += [(0, c1), (0, c2), (1, c1), (1, c2)]
        hand += [(c1, mid)] * 2 + [(c2, mid)] * 2
    expected = AdGraph(8, tuple(hand))
    assert isomorphic(g, expected)[0]


def test_bad_parameters():
    with pytest.raises(BadParametersError):
        doubled_cycle(1)
    with pytest.raises(BadParametersError):
        doubled_path(-1)
    with pytest.raises(BadParametersError):
        doubled_theta(0, 1, 1)
    with pytest.raises(BadParametersError):
        k4_doubled_paths(0, 1)


def test_constructors_build_plain_graphs():
    plain = [
        doubled_path(2), doubled_cycle(4), doubled_theta(1, 2, 3),
        k4_doubled_paths(2, 3), k4_one_path(2), k4_two_sum(1, 2),
        c4_legs(1, 2, 0, 3), k4_tilde(2, 1), k4_tilde_two_sum(0, 1, 2, 1),
        doubled_tree((0, 0, 1)), isolated_vertices(3),
        C22.disjoint_union(doubled_theta(1, 1, 1)),
        one_sum_components(C22.disjoint_union(doubled_path(2)), 0, C22.n + 1),
    ]
    for g in plain:
        assert g.rotations is None and g.bipartition is None, g
    # vertex numbering and edge order stay fixed: the rotations that
    # planar_rotations finds, and so the realized diagrams, depend on both
    pinned = [
        (doubled_theta(1, 2, 3), 5, (
            (0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2), (0, 3), (0, 3),
            (3, 4), (3, 4), (1, 4), (1, 4))),
        (k4_doubled_paths(2, 3), 7, (
            (0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (0, 4), (1, 4), (1, 4),
            (2, 5), (2, 5), (5, 6), (5, 6), (3, 6), (3, 6))),
        (k4_two_sum(1, 2), 7, (
            (0, 2), (0, 3), (1, 2), (1, 3), (0, 1), (0, 1), (2, 4), (3, 4),
            (2, 5), (3, 5), (4, 6), (4, 6), (5, 6), (5, 6))),
        (c4_legs(1, 2, 0, 3), 10, (
            (0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (0, 4), (1, 5), (1, 5),
            (5, 6), (5, 6), (3, 7), (3, 7), (7, 8), (7, 8), (8, 9), (8, 9))),
        (k4_tilde(2, 1), 7, (
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (2, 4), (4, 5),
            (4, 5), (3, 6), (3, 6))),
        (k4_tilde_two_sum(0, 1, 2, 1), 10, (
            (0, 2), (0, 3), (1, 2), (1, 3), (3, 4), (3, 4), (0, 5), (0, 6),
            (1, 5), (1, 6), (5, 7), (5, 7), (7, 8), (7, 8), (6, 9), (6, 9))),
    ]
    for g, n, edges in pinned:
        assert (g.n, g.edges) == (n, edges)


# --- moves --------------------------------------------------------------------

def test_doubled_pendant_on_isolated_vertex():
    g = doubled_pendant(isolated_vertices(1), 0)
    assert (g.n, g.edge_count) == (2, 2)
    assert turaev_genus_graph(validate_adg(g)) == 0


def test_doubled_path_extend_preserves_genus_bipartite():
    # lengthening one pair of C2^2 by two steps lands on C4^2
    g = doubled_path_extend(C22, 0, 1)
    g = doubled_path_extend(g, 0, 2)
    c44 = doubled_cycle(4)
    assert isomorphic(g, c44)[0]
    assert turaev_genus_graph(validate_adg(g)) == 1


def test_two_path_extend_on_doubled_path_end():
    path = doubled_path(2)
    g = two_path_extend(path, 0, (0,))
    info = classify_genus(g)
    assert info.genus == 0
    assert info.family == "four-cycle-legs"


def test_two_path_extend_requires_odd_sets():
    with pytest.raises(InvalidSiteError):
        two_path_extend(C22, 0, (0, 1))


def test_one_sum_requires_distinct_components():
    union = C22.disjoint_union(C22)
    merged = one_sum_components(union, 0, 2)
    assert merged.n == 3
    with pytest.raises(InvalidSiteError):
        one_sum_components(C22, 0, 1)
    with pytest.raises(InvalidSiteError):
        one_sum_components(merged, 0, 1)


def test_doubled_path_contract_requires_interior():
    with pytest.raises(InvalidSiteError):
        doubled_path_contract(C22, 0, 1)
    path = doubled_path(2)
    back = doubled_path_contract(path, 1, 0)
    p1 = doubled_path(1)
    assert isomorphic(back, p1)[0]


# --- canonical contraction ------------------------------------------------------

def test_canonical_contract_c6():
    got = canonical_contract(doubled_cycle(6))
    assert isomorphic(got, C22)[0]


def test_canonical_contract_k4():
    got = canonical_contract(k4_doubled_paths(2, 2))
    want = k4_doubled_paths(1, 1)
    assert isomorphic(got, want)[0]


def test_canonical_contract_fixed_point():
    one_sum = one_sum_components(C22.disjoint_union(C22), 0, C22.n)
    got = canonical_contract(one_sum)
    assert isomorphic(got, one_sum)[0]


def test_canonical_contract_idempotent_and_order_free(rng):
    for g in (doubled_cycle(8), k4_doubled_paths(3, 4), k4_two_sum(2, 4)):
        base = canonical_contract(g)
        assert isomorphic(base, canonical_contract(base))[0]
        for _ in range(4):
            assert isomorphic(base, stepwise_contract(g, rng))[0]


def _contraction_corpus() -> list[AdGraph]:
    """Paths, cycles, thetas, the K4 families, four-cycles with legs,
    one-sums of cycles at either vertex, random graphs, random genus-zero
    graphs and small census graphs: every kind of doubled path, loop
    paths and cycles of sites included."""
    graphs = [doubled_path(k) for k in range(5)]
    graphs += [doubled_cycle(i) for i in range(2, 8)]
    graphs += [doubled_theta(*p) for p in itertools.product((1, 2, 3), repeat=3)]
    graphs += [k4_doubled_paths(p, q) for p in (1, 3) for q in (1, 2)]
    graphs += [k4_two_sum(p, q) for p in (1, 3) for q in (1, 2)]
    graphs += [c4_legs(*p) for p in itertools.product((0, 2), repeat=4)]
    graphs += [k4_tilde_two_sum(*p) for p in ((0, 1, 2, 0), (2, 2, 1, 1))]
    graphs += [one_sum_components(doubled_cycle(i).disjoint_union(doubled_cycle(j)),
                                  v, i + w)
               for i in (2, 3, 5) for j in (2, 4) for v in (0, 1) for w in (0, 1)]
    rng = random.Random(13)
    graphs += [corpus.random_adgraph(rng, max_edges=16) for _ in range(200)]
    graphs += [random_genus0(rng.randrange(40), seed)[0] for seed in range(150)]
    graphs += enumerate_adgs(CensusFilter(8, 12))
    return graphs


def test_canonical_contract_matches_the_stepwise_reference():
    """One-pass contraction has the canonical form of contracting one
    site at a time, in first-site order and in random order, and leaves
    a graph with no site as it is."""
    rng = random.Random(1313)
    graphs = _contraction_corpus()
    contracted = 0
    for g in graphs:
        got = canonical_contract(g)
        form = canonical_form(got)
        assert form == canonical_form(stepwise_contract(g))
        assert form == canonical_form(stepwise_contract(g, rng))
        if contractible_sites(g):
            contracted += 1
        else:
            assert (got.n, got.edges) == (g.n, g.edges)
    assert contracted > len(graphs) // 4


@pytest.mark.parametrize("build", [doubled_cycle, lambda n: doubled_theta(n, n, n)],
                         ids=["cycle", "theta"])
def test_contraction_finds_the_sites_a_fixed_number_of_times(build, monkeypatch):
    """One contraction of a doubled cycle or theta runs the interior test
    the same number of times at every size."""
    calls = []
    real = families.contractible_sites

    def counted(graph):
        calls.append(graph.n)
        return real(graph)

    monkeypatch.setattr(families, "contractible_sites", counted)
    counts = []
    for n in (10, 100, 1000):
        calls.clear()
        canonical_contract(build(n))
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2]


# --- reducedness ----------------------------------------------------------------

def test_is_reduced():
    assert is_reduced(isolated_vertices(1))
    assert is_reduced(C22)
    assert not is_reduced(doubled_path(2))
    assert not is_reduced(isolated_vertices(2))
    union = C22.disjoint_union(isolated_vertices(1))
    assert not is_reduced(union)
    both = C22.disjoint_union(C22)
    assert is_reduced(both)


def k_edge_connected_brute(vertices, edges, k):
    """Survives the deletion of any fewer than k edges: the slow oracle."""
    index = {v: i for i, v in enumerate(vertices)}
    pairs = [(index[u], index[w]) for u, w in edges]
    for size in range(1, k):
        for combo in itertools.combinations(range(len(pairs)), size):
            kept = (p for i, p in enumerate(pairs) if i not in combo)
            if components(len(index), kept)[1] != 1:
                return False
    return True


def component_edge_lists(graph):
    for comp in graph.components():
        members = set(comp)
        yield comp, [e for e in graph.edges if e[0] in members]


def is_reduced_brute(graph):
    """The definition, by the slow oracle on each component."""
    if graph.n == 1 and not graph.edges:
        return True
    return all(len(comp) > 1 and k_edge_connected_brute(comp, edges, 3)
               for comp, edges in component_edge_lists(graph))


def test_three_edge_connected_matches_brute_force_on_census():
    graphs = enumerate_adgs(CensusFilter(max_vertices=8, max_edges=12))
    fast = [is_reduced(g) for g in graphs]
    assert fast == [is_reduced_brute(g) for g in graphs]
    assert set(fast) == {True, False} and len(graphs) > 300


def bridge_search_three_edge_connected(vertices, edges):
    """The per-edge reference: deleting any one edge leaves the graph
    connected and bridgeless, by one lowlink search per edge."""
    index = {v: i for i, v in enumerate(vertices)}
    pairs = [(index[u], index[w]) for u, w in edges]
    return all(
        connected_bridgeless(len(index), pairs[:i] + pairs[i + 1:])
        for i in range(len(pairs))
    )


def connected_bridgeless(n, pairs):
    """Iterative lowlink search from vertex 0.  The tree edge is skipped by
    its id, not its far end, so a parallel copy is never a bridge."""
    incident = [[] for _ in range(n)]
    for i, (u, w) in enumerate(pairs):
        incident[u].append((w, i))
        incident[w].append((u, i))
    disc = [-1] * n
    low = [0] * n
    disc[0] = 0
    seen = 1
    stack = [(0, -1, iter(incident[0]))]
    while stack:
        v, via, it = stack[-1]
        for w, i in it:
            if i == via:
                continue
            if disc[w] < 0:
                disc[w] = low[w] = seen
                seen += 1
                stack.append((w, i, iter(incident[w])))
                break
            low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                if low[v] > disc[parent]:
                    return False
                low[parent] = min(low[parent], low[v])
    return seen == n


def is_reduced_by_bridge_search(graph):
    if graph.n == 1 and not graph.edges:
        return True
    return all(len(comp) > 1 and bridge_search_three_edge_connected(comp, edges)
               for comp, edges in component_edge_lists(graph))


def test_is_reduced_judges_each_component():
    """The labels come from one spanning forest of the whole graph, and
    still each component is judged on its own."""
    triple = ((0, 1),) * 3
    assert is_reduced(AdGraph(2, triple))
    assert is_reduced(AdGraph(4, triple + ((2, 3),) * 3))
    assert not is_reduced(AdGraph(4, triple + ((2, 3),) * 2))
    assert not is_reduced(AdGraph(5, triple + ((2, 3),) * 3))
    assert not is_reduced(AdGraph(3, triple + ((1, 2),)))
    assert is_reduced(AdGraph(0, ()))


def test_is_reduced_matches_bridge_search_on_census():
    graphs = [g for g in enumerate_adgs(CensusFilter(8, 16))
              if 2 not in g.degrees()]
    fast = [is_reduced(g) for g in graphs]
    assert fast == [is_reduced_by_bridge_search(g) for g in graphs]
    assert (len(graphs), sum(fast)) == (1568, 278)


@pytest.mark.parametrize("graph", [
    doubled_theta(166, 166, 166),
    k4_doubled_paths(250, 250),
    doubled_cycle(800),
], ids=["theta(166,166,166)", "k4pq(250,250)", "cycle800"])
def test_is_reduced_matches_bridge_search_on_large_graphs(graph):
    """Every doubled path of these families meets any cut twice, so
    each is reduced, and the reference runs its full E searches."""
    assert is_reduced_by_bridge_search(graph)
    assert is_reduced(graph)


multigraphs = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(1, max(1, n - 1))),
            max_size=16 if n > 1 else 0,
        ).map(lambda ends: [(u, (u + d) % n) for u, d in ends]),
        st.permutations(list(range(n))),
    )
)


@settings(max_examples=300, deadline=None)
@given(multigraphs)
def test_three_edge_connected_matches_brute_force(data):
    n, edges, _ = data
    graph = AdGraph(n, tuple(edges))
    assert is_reduced(graph) == is_reduced_brute(graph)


# --- isomorphism ----------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(multigraphs)
def test_canonical_form_relabelling_invariant(data):
    n, edges, perm = data
    graph = AdGraph(n, tuple(edges))
    form = canonical_form(graph)
    assert form == canonical_form(graph.relabeled(perm))
    # the form is itself a relabelling of the graph
    assert find_isomorphism(graph, AdGraph(*form)) is not None


def matching(order):
    return [(order[i], order[i + 1]) for i in range(0, len(order), 2)]


#: unions of perfect matchings, optionally cut in two blocks: regular
#: pieces, which colour refinement cannot split, so the search and its
#: pruning do all the work
regular_multigraphs = st.integers(min_value=2, max_value=8).flatmap(
    lambda half: st.tuples(
        st.just(2 * half),
        st.lists(st.permutations(list(range(2 * half))), min_size=1, max_size=3),
        st.integers(0, half).map(lambda k: 2 * k),
        st.permutations(list(range(2 * half))),
    )
)


def regular_graph(data):
    n, orders, cut, perm = data
    edges = [(u, v) for order in orders for u, v in matching(order)
             if (u < cut) == (v < cut)]
    return AdGraph(n, tuple(edges)), perm


@settings(max_examples=400, deadline=None)
@given(regular_multigraphs)
def test_canonical_form_relabelling_invariant_on_regular_graphs(data):
    graph, perm = regular_graph(data)
    assert canonical_form(graph) == canonical_form(graph.relabeled(perm))


def cycle_lengths(total, smallest=3):
    """Multisets of cycle lengths >= smallest summing to at most total."""
    yield ()
    for first in range(smallest, total + 1):
        for rest in cycle_lengths(total - first, first):
            yield (first,) + rest


def test_canonical_form_on_cycle_unions():
    # 2-regular graphs: every vertex looks alike to colour refinement
    rng = random.Random(16)
    unions = 0
    for lengths in cycle_lengths(16):
        edges, n = [], 0
        for k in lengths:
            edges += [(n + i, n + (i + 1) % k) for i in range(k)]
            n += k
        graph = AdGraph(n, tuple(edges))
        form = canonical_form(graph)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(graph.relabeled(perm)) == form, lengths
        unions += 1
    assert unions == 96


@st.composite
def refinement_cases(draw):
    """A multigraph on at most 12 vertices with multiplicities 1 to 4,
    choices of vertices to individualise, and a relabelling."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda e: e[0] < e[1]), max_size=24))
    edges = [e for e in sorted(pairs) for _ in range(draw(st.integers(1, 4)))]
    picks = draw(st.lists(st.integers(0, 11), max_size=5))
    return AdGraph(n, tuple(edges)), picks, draw(st.permutations(range(n)))


def refinement_sequence(graph, picks, original=None):
    """The partitions of the splitter-queue and the round-based
    refinement, from the unit partition and after each individualisation
    of the picked member of the first non-singleton cell.  Members are
    counted in vertex order, or in the order of ``original``, each
    vertex's number before a relabelling, so that a relabelled copy
    picks the images of the same vertices."""
    nbrs = families._weighted_nbrs(graph)
    plain = [tuple(a.items()) for a in _mult_adj(graph)]
    base = 1 + max((m for nb in plain for _, m in nb), default=0)
    col = families._refine(nbrs, [0] * graph.n, [0])
    ref = round_refine(plain, base, [0] * graph.n)
    steps = [(col[:], ref)]
    for pick in picks:
        start = families._first_split(col)
        if start is None:
            break
        cell = sorted((v for v in range(graph.n) if col[v] == start),
                      key=original.__getitem__ if original else None)
        v = cell[pick % len(cell)]
        child = families._individualise(col, [v])
        ref = round_refine(plain, base, families._individualise(ref, [v]))
        col = families._refine(nbrs, child, [child[v]])
        steps.append((col[:], ref))
    return steps


def cells_of(col):
    """The cells of an ordered partition as sets, after checking that
    each colour is the first position of its cell."""
    cells = {}
    for v, c in enumerate(col):
        cells.setdefault(c, set()).add(v)
    starts = sorted(cells)
    assert starts == list(itertools.accumulate(
        [0] + [len(cells[c]) for c in starts[:-1]]))
    return {frozenset(cell) for cell in cells.values()}


@settings(max_examples=300, deadline=None)
@given(refinement_cases())
def test_refine_matches_round_based_oracle(case):
    """The splitter queue reaches the oracle's cells, as sets, and its
    ordered result commutes with relabelling."""
    graph, picks, perm = case
    steps = refinement_sequence(graph, picks)
    for col, ref in steps:
        assert cells_of(col) == cells_of(ref)
    original = [perm.index(w) for w in range(graph.n)]
    moved = refinement_sequence(graph.relabeled(perm), picks, original)
    assert len(moved) == len(steps)
    for (col, _), (col2, _) in zip(steps, moved):
        assert all(col2[perm[v]] == col[v] for v in range(graph.n))


#: graphs on which a queue that also skips the largest sub-cell of a
#: queued cell stops at a partition that is not equitable
_SKIP_WITNESSES = [
    AdGraph(14, ((0, 2), (0, 12), (0, 12), (1, 5), (4, 7), (4, 7), (4, 12),
                 (8, 11), (8, 12), (8, 12), (9, 13), (9, 13), (10, 12))),
    AdGraph(12, ((0, 1), (0, 10), (1, 7), (1, 7), (1, 7), (1, 11), (2, 5),
                 (3, 6), (3, 6), (3, 6), (3, 7), (3, 9), (3, 9), (4, 8), (4, 8),
                 (4, 8), (6, 8), (6, 10), (6, 10), (6, 10), (8, 10))),
]


def test_refine_matches_round_based_oracle_on_seeded_graphs():
    """20,000 seeded multigraphs, refined from the unit partition and
    after one individualisation: a queue that loses a splitter stops at
    a partition that is not equitable on a few of them."""
    rng = random.Random(1)
    graphs = list(_SKIP_WITNESSES)
    for _ in range(20000):
        n = rng.randint(2, 14)
        pairs = {tuple(sorted(rng.sample(range(n), 2)))
                 for _ in range(rng.randint(1, 2 * n))}
        graphs.append(AdGraph(n, tuple(
            e for e in sorted(pairs) for _ in range(rng.choice((1, 1, 1, 2, 3))))))
    steps = 0
    for graph in graphs:
        for col, ref in refinement_sequence(graph, [rng.randrange(graph.n)]):
            assert cells_of(col) == cells_of(ref), graph
            steps += 1
    assert steps > 30000


def test_canonical_form_separates_same_profile():
    k411 = k4_doubled_paths(1, 1)
    c42 = doubled_cycle(4)
    assert canonical_form(k411) != canonical_form(c42)
    # multiplicities count: a doubled and a quadrupled edge differ
    assert canonical_form(AdGraph(2, ((0, 1),) * 2)) != canonical_form(
        AdGraph(2, ((0, 1),) * 4))
    assert canonical_form(AdGraph(3, ())) != canonical_form(AdGraph(2, ()))


@pytest.fixture
def refine_counts(monkeypatch):
    """Counts of ``families._refine`` calls and of the reads of the
    neighbour list it is handed."""
    counts = {"calls": 0, "reads": 0}
    real = families._refine

    class Reads(list):
        def __getitem__(self, i):
            counts["reads"] += 1
            return list.__getitem__(self, i)

    def counted(nbrs, *args):
        counts["calls"] += 1
        return real(Reads(nbrs), *args)

    monkeypatch.setattr(families, "_refine", counted)
    return counts


def test_canonical_form_prunes_automorphisms(refine_counts):
    # a star with seven legs of length two has 7! leg permutations; only
    # the automorphisms found at equal leaves keep the search small: one
    # refinement per node visited
    edges = []
    for leg in range(7):
        edges += [(0, 2 * leg + 1), (2 * leg + 1, 2 * leg + 2)]
    star = AdGraph(15, tuple(edges))
    canonical_form(star)
    assert refine_counts["calls"] == 28


def test_refinement_work_grows_near_linearly_on_long_paths(refine_counts):
    # a round-based refinement moves one step along a doubled path per
    # pass over every cell, about 4x the reads per doubling of k
    reads = []
    for k in (40, 80, 160):
        refine_counts["reads"] = 0
        canonical_form(doubled_theta(k, k, k))
        reads.append(refine_counts["reads"])
    assert all(0 < a and b <= 2.5 * a for a, b in zip(reads, reads[1:])), reads


def doubled_star(k):
    """A hub joined to k leaves, every edge doubled: k twins."""
    return AdGraph(k + 1, tuple(e for v in range(1, k + 1) for e in [(0, v)] * 2))


def test_canonical_form_of_a_large_twin_class():
    # every order of the 1,500 twin leaves gives an automorphic leaf, so
    # the search makes their cell discrete in one step instead of 1,500
    # nested levels
    star = doubled_star(1500)
    form = canonical_form(star)
    perm = random.Random(15).sample(range(star.n), star.n)
    assert canonical_form(star.relabeled(perm)) == form
    assert canonical_form(doubled_star(1499).disjoint_union(isolated_vertices(1))) != form


@pytest.mark.parametrize("graph,family,params", [
    (doubled_theta(166, 166, 166), "doubled-theta", (166, 166, 166)),
    (k4_doubled_paths(250, 250), "k4-doubled-paths", (250, 250)),
    (c4_legs(120, 3, 77, 40), "four-cycle-legs", (120, 40, 77, 3)),
    (k4_two_sum(140, 90), "k4-two-sum", (90, 140)),
], ids=["theta166", "k4pq250", "c4legs120", "k4twosum140"])
def test_classify_long_family_graphs(graph, family, params):
    info = classify_genus(graph)
    assert (info.family, info.parameters) == (family, params)
    perm = random.Random(graph.n).sample(range(graph.n), graph.n)
    relabeled = graph.relabeled(perm)
    ok, witness = isomorphic(graph, relabeled)
    assert ok and sorted(graph.relabeled(witness).edges) == sorted(relabeled.edges)



def test_isomorphic_basic():
    c4 = doubled_cycle(4)
    two = C22.disjoint_union(C22)
    ok, _ = isomorphic(c4, two)
    assert not ok  # same counts, different component structure
    ok, witness = isomorphic(c4, c4)
    assert ok and sorted(witness) == list(range(4))


def test_isomorphic_witness_is_a_real_map(rng):
    g = k4_doubled_paths(2, 3)
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabeled = g.relabeled(perm)
    ok, witness = isomorphic(g, relabeled)
    assert ok
    mapped = g.relabeled(witness)
    assert sorted(mapped.edges) == sorted(relabeled.edges)


def swapped(edges, swaps):
    """Degree-preserving double edge swaps (a, b), (c, d) -> (a, d), (c, b),
    skipped where a loop would appear."""
    edges = list(edges)
    for i, j in swaps:
        i, j = i % len(edges), j % len(edges)
        (a, b), (c, d) = edges[i], edges[j]
        if i != j and a != d and c != b:
            edges[i], edges[j] = (a, d), (c, b)
    return edges


def check_isomorphic(g1, g2):
    """``isomorphic`` agrees with the oracle, and its witness relabels
    ``g1`` exactly onto ``g2``.  Returns the verdict."""
    ok, witness = isomorphic(g1, g2)
    assert ok == (find_isomorphism(g1, g2) is not None)
    if ok:
        assert sorted(g1.relabeled(witness).edges) == sorted(g2.edges)
    else:
        assert witness is None
    return ok


@settings(max_examples=300, deadline=None)
@given(multigraphs, st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                             min_size=1, max_size=3))
def test_isomorphic_matches_oracle(data, swaps):
    n, edges, perm = data
    graph = AdGraph(n, tuple(edges))
    assert check_isomorphic(graph, graph.relabeled(perm))
    if edges:
        twin = AdGraph(n, tuple(swapped(edges, swaps)))
        assert sorted(twin.degrees()) == sorted(graph.degrees())
        check_isomorphic(graph, twin.relabeled(perm))


@settings(max_examples=200, deadline=None)
@given(regular_multigraphs)
def test_isomorphic_witness_on_regular_graphs(data):
    # refinement leaves one cell here, so the search visits many leaves
    # and the first is often not the least
    graph, perm = regular_graph(data)
    assert check_isomorphic(graph, graph.relabeled(perm))


def test_isomorphic_matches_oracle_on_degree_twins():
    # seeded pairs with equal (n, E) and degree sequences: both verdicts
    # must occur, with many non-isomorphic pairs among them
    rng = random.Random(6)
    verdicts = []
    for _ in range(400):
        n = rng.randint(4, 9)
        edges = [(u, (u + rng.randint(1, n - 1)) % n)
                 for u in rng.choices(range(n), k=rng.randint(4, 14))]
        swaps = [(rng.randrange(99), rng.randrange(99)) for _ in range(2)]
        perm = rng.sample(range(n), n)
        graph = AdGraph(n, tuple(edges))
        twin = AdGraph(n, tuple(swapped(edges, swaps))).relabeled(perm)
        verdicts.append(check_isomorphic(graph, twin))
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50


def test_non_isomorphic_same_profile():
    k411 = k4_doubled_paths(1, 1)
    # another 4-vertex 8-edge multigraph: a doubled 4-cycle
    c42 = doubled_cycle(4)
    assert not isomorphic(k411, c42)[0]


# --- classification -------------------------------------------------------------

def test_classify_c10():
    info = classify_genus(doubled_cycle(10))
    assert info == Classification(1, True, "doubled-even-cycle", (10,))


def test_classify_theta():
    info = classify_genus(doubled_theta(1, 1, 1))
    assert info.genus == 2 and info.is_reduced
    assert info.family == "doubled-theta"
    assert info.parameters == (1, 1, 1)


def test_classify_two_doubled_paths():
    g = doubled_path(2).disjoint_union(doubled_path(1))
    info = classify_genus(g)
    assert info.genus == 0
    assert info.family == "two-doubled-paths"
    assert info.parameters == (1, 2)


def test_classify_five_representatives():
    expected = {
        "doubled-cycles-disjoint",
        "doubled-cycles-one-sum",
        "doubled-theta",
        "k4-doubled-paths",
        "k4-two-sum",
    }
    got = set()
    for graph in (
        C22.disjoint_union(C22),
        one_sum_components(C22.disjoint_union(C22), 0, C22.n),
        doubled_theta(1, 1, 1),
        k4_doubled_paths(2, 2),
        k4_two_sum(2, 2),
    ):
        info = classify_genus(graph)
        assert info.genus == 2 and info.is_reduced
        got.add(info.family)
    assert got == expected


def test_classify_parameter_recovery():
    info = classify_genus(doubled_theta(1, 3, 3))
    assert info.family == "doubled-theta" and info.parameters == (1, 3, 3)
    info = classify_genus(k4_doubled_paths(4, 2))
    assert info.family == "k4-doubled-paths" and info.parameters == (2, 4)
    c42 = doubled_cycle(4)
    big = one_sum_components(c42.disjoint_union(C22), 0, c42.n)
    info = classify_genus(big)
    assert info.family == "doubled-cycles-one-sum"
    assert info.parameters == (2, 4)


def test_minimal_forms_mutually_nonisomorphic():
    forms = [families.FAMILIES[tag].build(*families.FAMILIES[tag].minimal[0])
             for tag in families.GENUS2_FAMILIES]
    for g, h in itertools.combinations(forms, 2):
        assert not isomorphic(g, h)[0]


def test_classify_disguised_theta():
    # a doubled 4-cycle with an extra doubled edge thickening one side is
    # a doubled theta in disguise
    g = AdGraph(4, tuple(
        list(doubled_cycle(4).edges) + [(0, 1), (0, 1)]
    ))
    info = classify_genus(g)
    assert info.genus == 2
    assert info.family == "doubled-theta"
    assert info.parameters == (1, 1, 3)
    direct = doubled_theta(1, 1, 3)
    assert isomorphic(g, direct)[0]


# --- genus-zero generator ----------------------------------------------------------

def test_random_genus0_zero_moves():
    g, script = random_genus0(0, seed=7)
    assert g.edge_count == 0
    assert turaev_genus_graph(validate_adg(g)) == 0
    assert replay_script(script).n == g.n


def test_random_genus0_scripts():
    for seed in range(25):
        g, script = random_genus0(30, seed)
        assert turaev_genus_graph(validate_adg(g)) == 0
        replayed = replay_script(script)
        assert isomorphic(replayed, g)[0]


@pytest.mark.parametrize("bad, error, lineno, good", [
    ("pendant 0", MalformedLineError, 1, "start 1\npendant 0"),
    ("start x", MalformedLineError, 1, "start 1"),
    ("start 1\npendant", MalformedLineError, 2, "start 1\npendant 0"),
    ("start 2\n\nonesum 0", MalformedLineError, 3, "start 2\n\nonesum 0 1"),
    ("start 1\npendant 0 0", MalformedLineError, 2, "start 1\npendant 0"),
    ("start 1\npendant 0\ntwopath 0 0", MalformedLineError, 3,
     "start 1\npendant 0\ntwopath 0 : 0"),
    ("start 2\nonesum 0 5", InvalidSiteError, None, "start 2\nonesum 0 1"),
    ("start 2\nonesum 0 -1", InvalidSiteError, None, "start 2\nonesum 0 1"),
    ("start 1\npendnt 0", InvalidSiteError, None, "start 1\npendant 0"),
    ("start 1_0", MalformedLineError, 1, "start 10"),
    ("start 1\npendant \uff10", MalformedLineError, 2, "start 1\npendant 0"),
    ("start 2\nonesum 0 +1", MalformedLineError, 2, "start 2\nonesum 0 1"),
])
def test_replay_script_near_misses(bad, error, lineno, good):
    """Each malformed script raises its error, with the line number of
    the bad line; the valid script one edit away replays."""
    with pytest.raises(error) as info:
        replay_script(bad)
    if lineno is not None:
        assert info.value.lineno == lineno
    assert replay_script(good).n >= 1


def test_replay_rejects_a_repeated_twopath_edge():
    """A repeated edge index is a bad site, not the same line without
    the repeats."""
    with pytest.raises(InvalidSiteError):
        replay_script('start 1\npendant 0\npendant 0\ntwopath 0 : 0 0 0')
    assert replay_script('start 1\npendant 0\npendant 0\ntwopath 0 : 0').n == 5
    with pytest.raises(InvalidSiteError):
        two_path_extend(C22, 0, (0, 0, 1))


def test_replay_rejects_a_start_over_the_vertex_cap(monkeypatch):
    """``start`` above the graph-file cap fails on its own line, before
    any graph is built; the cap itself replays."""
    built = []
    real = families.isolated_vertices
    monkeypatch.setattr(families, "isolated_vertices",
                        lambda n: built.append(n) or real(n))
    with pytest.raises(MalformedLineError) as info:
        replay_script(f"start {MAX_GRAPH_VERTICES + 1}\nonesum 0 1")
    assert info.value.lineno == 1 and built == []
    assert replay_script(f"start {MAX_GRAPH_VERTICES}").n == MAX_GRAPH_VERTICES


def test_one_sum_rejects_vertices_out_of_range():
    two = isolated_vertices(2)
    for v in (2, 5, -1):
        with pytest.raises(InvalidSiteError):
            one_sum_components(two, 0, v)
        with pytest.raises(InvalidSiteError):
            one_sum_components(two, v, 1)


_SCRIPT_TOKENS = st.sampled_from(
    ["start", "pendant", "twopath", "onesum", ":", "#", "x", "1.5",
     "-1", "0", "1", "2", "3", "9"])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 25), st.integers(0, 10**6), st.data())
def test_mutated_scripts_replay_or_raise_turaev_errors(moves, seed, data):
    """A ``random_genus0`` script with one line replaced, deleted,
    duplicated or with one field changed replays to a graph or raises a
    TuraevError, never anything else."""
    lines = random_genus0(moves, seed)[1].splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(st.sampled_from(["replace", "delete", "duplicate", "field"]))
    if kind == "replace":
        lines[i] = " ".join(data.draw(st.lists(_SCRIPT_TOKENS, max_size=6)))
    elif kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        fields = lines[i].split()
        j = data.draw(st.integers(0, len(fields)))
        fields[j:j + 1] = data.draw(st.lists(_SCRIPT_TOKENS, max_size=2))
        lines[i] = " ".join(fields)
    try:
        graph = replay_script("\n".join(lines))
    except TuraevError:
        return
    assert isinstance(graph, AdGraph)
