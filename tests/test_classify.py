"""The form table behind ``classify_genus`` and the census, checked
against the recognizers it replaced (``tests/classify_oracle.py``), by
rebuilding every answer, and on relabelled inputs."""

from __future__ import annotations

import functools
import itertools
import random

import classify_oracle
import pytest
from hypothesis import given, settings, strategies as st
from turaevgenus import adgraph, census as census_module, corpus, families
from turaevgenus.adgraph import AdGraph
from turaevgenus.census import CensusFilter, census, enumerate_adgs
from turaevgenus.errors import ClassificationFailureError, TuraevError
from turaevgenus.families import (
    FAMILIES,
    c4_legs,
    canonical_form,
    canonical_search,
    classify_genus,
    contract_with_lengths,
    doubled_cycle,
    doubled_path,
    doubled_theta,
    doubled_tree,
    isolated_vertices,
    k4_doubled_paths,
    k4_tilde_two_sum,
    k4_two_sum,
    one_sum_components,
    random_genus0,
)

#: the families whose parameters are fixed only up to a symmetry of the
#: builder; the others print exactly what the oracle reads
_UP_TO_SYMMETRY = {"four-cycle-legs", "doubled-tree"}


def _oracle_corpus() -> list[AdGraph]:
    """Family instances on both sides of every leg and path length that
    contraction shortens, the census at (8, 12), seeded random graphs
    and the graphs with isolated vertices, each also relabelled."""
    small = range(1, 4)
    cycles = (2, 4, 6)
    graphs = [AdGraph(0, ()), isolated_vertices(1), isolated_vertices(3)]
    graphs += [c4_legs(*p) for p in itertools.product(range(4), repeat=4)]
    graphs += [k4_tilde_two_sum(*p) for p in itertools.product(range(3), repeat=4)]
    graphs += [doubled_path(p).disjoint_union(doubled_path(q))
               for p in range(4) for q in range(4)]
    graphs += [doubled_theta(*p) for p in itertools.product(small, repeat=3)]
    graphs += [k4_doubled_paths(p, q) for p in small for q in small]
    graphs += [k4_two_sum(p, q) for p in small for q in small]
    graphs += [doubled_cycle(i) for i in (2, 3, 4, 10)]
    graphs += [doubled_cycle(i).disjoint_union(doubled_cycle(j))
               for i in cycles for j in cycles]
    graphs += [one_sum_components(doubled_cycle(i).disjoint_union(doubled_cycle(j)),
                                  v, i + w)
               for i in cycles for j in cycles for v in (0, 1) for w in (0, 1)]
    graphs += enumerate_adgs(CensusFilter(8, 12))
    rng = random.Random(12)
    graphs += [corpus.random_adgraph(rng, max_edges=16) for _ in range(60)]
    graphs += [random_genus0(moves, seed)[0]
               for moves in (3, 8, 20) for seed in range(20)]
    graphs += [g.disjoint_union(isolated_vertices(k))
               for g in (doubled_path(2), doubled_cycle(2), doubled_theta(1, 1, 1),
                         c4_legs(1, 0, 0, 0))
               for k in (1, 2)]
    shuffled = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        shuffled.append(g.relabeled(perm))
    return graphs + shuffled


def _outcome(classify, graph: AdGraph):
    try:
        info = classify(graph)
    except TuraevError as exc:
        return type(exc)
    return info.genus, info.is_reduced, info.family, info.parameters


def _embedded(graph: AdGraph) -> AdGraph:
    """The graph with the rotations its validation finds, so that the
    two classifiers run no planarity search."""
    try:
        return adgraph.validate_adg(graph)
    except TuraevError:
        return graph


def _rebuilt(family: str, params: tuple) -> AdGraph:
    if family == "doubled-tree":
        return doubled_tree(params[1:])
    return FAMILIES[family].build(*params)


def _same_answer(got, want) -> bool:
    """Equal outcomes, where parameters fixed only up to a symmetry of
    the builder count as equal when they build isomorphic graphs."""
    if got == want:
        return True
    if not (isinstance(got, tuple) and isinstance(want, tuple)):
        return False
    family = got[2]
    return (got[:3] == want[:3] and family in _UP_TO_SYMMETRY
            and canonical_form(_rebuilt(family, got[3]))
            == canonical_form(_rebuilt(family, want[3])))


def test_classify_genus_matches_the_oracle():
    graphs = [_embedded(g) for g in _oracle_corpus()]
    got = [_outcome(classify_genus, g) for g in graphs]
    want = [_outcome(classify_oracle.classify_genus, g) for g in graphs]
    assert [(g.n, g.edges) for g, a, b in zip(graphs, got, want)
            if not _same_answer(a, b)] == []
    named = {out[2] for out in got if isinstance(out, tuple)}
    assert named == set(FAMILIES) | {"doubled-tree", None}


def test_minimal_members_are_contracted_and_distinct():
    """Each minimal member is fixed by contraction, its parameters read
    back to the same graph, and no key names two families."""
    owner: dict[tuple, str] = {}
    for tag, family in FAMILIES.items():
        for params in family.minimal:
            graph = family.build(*params)
            key = canonical_form(graph)
            contracted, lengths = contract_with_lengths(graph)
            assert canonical_form(contracted) == key
            found = canonical_search(contracted)
            named, read = families.family_of(found, lengths, 0)
            assert named == tag and canonical_form(family.build(*read)) == key
            assert owner.setdefault(key, tag) == tag


def test_doubled_tree_needs_no_isomorphism(monkeypatch):
    calls = []
    real = families.isomorphic

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(families, "isomorphic", counted)
    info = classify_genus(doubled_tree((0, 0, 1, 1)))
    assert (info.family, info.parameters) == ("doubled-tree", (3, 0, 1, 1, 3))
    assert calls == []


@functools.cache
def _small_instances() -> list[AdGraph]:
    """Every family instance with each parameter at most 4, the doubled
    trees on up to five vertices, and the members of every census class
    of genus one and two at (8, 12)."""
    graphs = []
    for family in FAMILIES.values():
        for params in itertools.product(range(5), repeat=len(family.minimal[0])):
            try:
                graphs.append(adgraph.validate_adg(family.build(*params)))
            except TuraevError:  # a length below the family's least, or odd
                pass
    for size in range(1, 5):
        graphs += [doubled_tree(parents) for parents in
                   itertools.product(*(range(i + 1) for i in range(size)))]
    for genus in (1, 2):
        graphs += [g for cls in census(genus, CensusFilter(8, 12)) for g in cls.members]
    return graphs


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_classify_genus_ignores_the_labelling(data):
    graph = data.draw(st.sampled_from(_small_instances()))
    perm = data.draw(st.permutations(list(range(graph.n))))
    assert _outcome(classify_genus, graph.relabeled(perm)) == _outcome(
        classify_genus, graph)


def test_every_answer_rebuilds_its_graph():
    """The builder on the printed parameters gives the classified graph
    back, on the small instances and the oracle corpus."""
    rebuilt = 0
    for graph in _small_instances() + _oracle_corpus():
        out = _outcome(classify_genus, graph)
        if isinstance(out, tuple) and out[2] is not None:
            assert canonical_form(_rebuilt(*out[2:])) == canonical_form(graph), out
            rebuilt += 1
    assert rebuilt > 1000


def test_classify_runs_one_search(monkeypatch):
    """With the form table built, naming a family takes the search of
    the contraction and nothing else."""
    families._forms()
    calls = []
    real = families.canonical_search

    def counted(graph):
        calls.append(graph.n)
        return real(graph)

    monkeypatch.setattr(families, "canonical_search", counted)
    for graph in (doubled_theta(2, 4, 6), k4_doubled_paths(2, 4), c4_legs(1, 2, 3, 0)):
        calls.clear()
        assert classify_genus(graph).family is not None
        assert len(calls) == 1


def test_a_graph_against_the_theorems_raises():
    """A reduced graph of genus one or two that is no doubled even cycle,
    or matches no minimal form of its genus, refutes the classification."""
    for graph, genus in ((doubled_cycle(3), 1), (doubled_theta(1, 1, 1), 1),
                         (doubled_cycle(4), 2), (c4_legs(1, 0, 0, 0), 2)):
        contracted, lengths = contract_with_lengths(graph)
        with pytest.raises(ClassificationFailureError):
            families.family_of(canonical_search(contracted), lengths, genus)


def test_census_grouping_validates_nothing(monkeypatch):
    """The census names a class from the key it has computed: a whole
    genus-3 census runs no validation, and every planarity search in it
    is stage 1's test of a kept class."""
    calls = {"validate_adg": 0, "stage 1": 0, "elsewhere": 0}
    in_stage1 = []
    real_planar = census_module._is_planar_bipartite
    real_search = adgraph._left_right

    def validate(real):
        def counted(*args, **kwargs):
            calls["validate_adg"] += 1
            return real(*args, **kwargs)
        return counted

    def planar(*args):
        in_stage1.append(True)
        try:
            return real_planar(*args)
        finally:
            in_stage1.pop()

    def search(*args):
        calls["stage 1" if in_stage1 else "elsewhere"] += 1
        return real_search(*args)

    monkeypatch.setattr(adgraph, "validate_adg", validate(adgraph.validate_adg))
    monkeypatch.setattr(families, "validate_adg", validate(families.validate_adg))
    monkeypatch.setattr(census_module, "_is_planar_bipartite", planar)
    monkeypatch.setattr(adgraph, "_left_right", search)
    classes = census(3, CensusFilter(8, 16, allow_isolated=False))
    assert len(classes) == 27
    assert calls["validate_adg"] == calls["elsewhere"] == 0
    assert calls["stage 1"] > 0
