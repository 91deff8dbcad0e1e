import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from turaevgenus import corpus, families, verify
from turaevgenus.adgraph import (
    AdGraph,
    find_bipartition,
    planar_rotations,
    to_ribbon,
    validate_adg,
)
from turaevgenus.construct import embed_planar
from turaevgenus.errors import NonOrientableError, NotBipartiteError
from turaevgenus.ribbon import (
    RibbonGraph,
    boundary_count,
    euler_genus,
    is_orientable,
    ribbon_genus,
    twist_all,
)

import halfedge_oracle as oracle

C22 = AdGraph(2, ((0, 1),) * 4, rotations=((0, 1, 2, 3), (3, 2, 1, 0)))


def test_single_vertex():
    r = RibbonGraph(((),), ())
    assert boundary_count(r) == 1
    assert ribbon_genus(r) == 0


def test_c22_sphere_embedding_flat():
    r = to_ribbon(C22, twisted=False)
    assert boundary_count(r) == 4
    assert ribbon_genus(r) == 0


def test_c22_all_twisted():
    r = to_ribbon(C22, twisted=True)
    assert boundary_count(r) == 2
    assert ribbon_genus(r) == 1


def test_tree_is_planar():
    tree = AdGraph(4, ((0, 1), (1, 2), (1, 3)),
                   rotations=((0,), (0, 1, 2), (1,), (2,)))
    assert ribbon_genus(to_ribbon(tree)) == 0
    assert boundary_count(to_ribbon(tree)) == 1


def test_theta_flat():
    theta = AdGraph(2, ((0, 1),) * 3, rotations=((0, 1, 2), (2, 1, 0)))
    assert ribbon_genus(to_ribbon(theta)) == 0


def test_two_c22_twisted():
    double = C22.disjoint_union(C22)
    rot = C22.rotations
    shifted = tuple(tuple(e + 4 for e in r) for r in rot)
    double = AdGraph(4, double.edges, rotations=rot + shifted)
    assert ribbon_genus(twist_all(to_ribbon(double))) == 2


def test_twist_all_idempotent():
    r = to_ribbon(C22)
    assert twist_all(twist_all(r)) == twist_all(r)
    empty = RibbonGraph(((), ()), ())
    assert twist_all(empty) == empty


def test_orientability():
    assert is_orientable(to_ribbon(C22))
    assert is_orientable(twist_all(to_ribbon(C22)))
    loop = RibbonGraph(((0, 1),), ((0, 1, True),))
    assert not is_orientable(loop)
    assert boundary_count(loop) == 1  # Moebius band


def test_nonorientable_error_payload():
    loop = RibbonGraph(((0, 1),), ((0, 1, True),))
    with pytest.raises(NonOrientableError) as exc:
        ribbon_genus(loop)
    assert exc.value.euler_genus == euler_genus(loop) == 1


def test_mirror_invariance():
    r = to_ribbon(C22, twisted=True)
    mirrored = RibbonGraph(
        tuple(tuple(reversed(rot)) for rot in r.vertices), r.edges
    )
    assert boundary_count(mirrored) == boundary_count(r)


def test_inconsistent_half_edges_rejected():
    with pytest.raises(ValueError):
        RibbonGraph(((0, 1),), ((0, 2, False),))


def test_orientability_matches_vertex_flips():
    # orientable iff some set of vertex flips makes every band flat;
    # a flip at a band's end toggles its twist, twice for a loop
    rng = random.Random(5)
    seen = {True: 0, False: 0}
    for _ in range(400):
        n, m = rng.randint(1, 5), rng.randint(0, 7)
        owner = [rng.randrange(n) for _ in range(2 * m)]
        vertices = tuple(
            tuple(h for h in range(2 * m) if owner[h] == v) for v in range(n)
        )
        edges = tuple((2 * i, 2 * i + 1, rng.random() < 0.5) for i in range(m))
        flat = any(
            all(t ^ flip[owner[a]] ^ flip[owner[b]] == 0 for a, b, t in edges)
            for flip in itertools.product((0, 1), repeat=n)
        )
        assert is_orientable(RibbonGraph(vertices, edges)) == flat
        seen[flat] += 1
    assert min(seen.values()) > 50, seen


# -- the flat readers against the dict-based references ----------------------------

def _genus_outcome(r: RibbonGraph):
    try:
        return "genus", ribbon_genus(r)
    except NonOrientableError as exc:
        return "non-orientable", exc.euler_genus


def _assert_readers_match_oracle(r: RibbonGraph) -> str:
    """The four readers and ``ribbon_genus`` against ``halfedge_oracle``;
    returns what ``ribbon_genus`` found."""
    v, e = r.vertices, r.edges
    k, f = oracle.component_count(v, e), oracle.boundary_count(v, e)
    orientable = oracle.is_orientable(v, e)
    eg = 2 * k - len(v) + len(e) - f
    readers = (boundary_count(r), is_orientable(r), r.component_count(), euler_genus(r))
    assert readers == (f, orientable, k, eg)
    outcome = _genus_outcome(r)
    assert outcome == (("genus", eg // 2) if orientable else ("non-orientable", eg))
    return outcome[0]


def _mixed(r: RibbonGraph, rng: random.Random) -> RibbonGraph:
    return RibbonGraph(
        r.vertices, tuple((a, b, rng.random() < 0.5) for a, b, _ in r.edges))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_flat_readers_match_oracle(seed):
    """Ribbon graphs of validated graphs with isolated vertices and
    several components, both twists and mixed twist bits, with the
    component count carried from validation or counted by the ribbon."""
    rng = random.Random(seed)
    graph = corpus.random_adgraph(rng, rng.choice((2, 6, 12)))
    for _ in range(rng.randint(0, 2)):
        graph = graph.disjoint_union(rng.choice((
            families.isolated_vertices(rng.randint(1, 2)), families.doubled_cycle(4),
            corpus.random_adgraph(rng, 6))))
    validated = embed_planar(validate_adg(AdGraph(graph.n, graph.edges)))
    hand_built = AdGraph(validated.n, validated.edges, rotations=validated.rotations)
    for embedded in (validated, hand_built):
        for twisted in (False, True):
            _assert_readers_match_oracle(to_ribbon(embedded, twisted))
        _assert_readers_match_oracle(_mixed(to_ribbon(embedded), rng))


def test_flat_readers_match_oracle_on_doubled_path_intermediates():
    """The non-bipartite graphs that ``verify.suite_doubled_path_moves``
    embeds: their all-twisted ribbon graphs are non-orientable, and
    ``NonOrientableError`` carries the oracle's Euler genus."""
    rng = random.Random(11)
    seen = 0
    for _ in range(200):
        graph = corpus.random_adgraph(rng, max_edges=10)
        pairs = sorted(k for k, m in graph.multiplicity().items() if m >= 2)
        if not pairs:
            continue
        extended = families.doubled_path_extend(graph, *rng.choice(pairs))
        try:
            find_bipartition(extended)
            continue
        except NotBipartiteError:
            pass
        embedded = planar_rotations(extended)
        assert _assert_readers_match_oracle(to_ribbon(embedded, twisted=True)) == \
            "non-orientable"
        _assert_readers_match_oracle(to_ribbon(embedded, twisted=False))
        _assert_readers_match_oracle(_mixed(to_ribbon(embedded), rng))
        seen += 1
    assert seen > 30, seen


def test_twist_all_runs_no_second_check(monkeypatch):
    """The twisted copy shares its source's checked arrays: over the two
    verify suites that build ribbon graphs, only the mirrored ribbons,
    which are outside input, run the constructor's check."""
    checks = []
    real = RibbonGraph.__post_init__

    def counted(self):
        checks.append(self)
        real(self)

    monkeypatch.setattr(RibbonGraph, "__post_init__", counted)
    for suite in (verify.suite_ribbon, verify.suite_doubled_path_moves):
        assert suite(random.Random(f"0:{suite.__name__}"), 5).ok
    assert len(checks) == 5
    flat = to_ribbon(C22)
    assert twist_all(flat) == RibbonGraph(flat.vertices, tuple(
        (a, b, True) for a, b, _ in flat.edges))
    assert len(checks) == 6
