"""The form table behind ``classify_genus`` and the census, checked
against the recognizers it replaced (``tests/classify_oracle.py``)."""

from __future__ import annotations

import itertools
import random

import classify_oracle
from turaevgenus import adgraph, corpus, families
from turaevgenus.adgraph import AdGraph
from turaevgenus.census import CensusFilter, census, enumerate_adgs
from turaevgenus.errors import TuraevError
from turaevgenus.families import (
    FAMILIES,
    c4_legs,
    canonical_contract,
    canonical_form,
    classify_genus,
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


def test_classify_genus_matches_the_oracle():
    graphs = [_embedded(g) for g in _oracle_corpus()]
    got = [_outcome(classify_genus, g) for g in graphs]
    want = [_outcome(classify_oracle.classify_genus, g) for g in graphs]
    assert [(g.n, g.edges) for g, a, b in zip(graphs, got, want) if a != b] == []
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
            assert canonical_form(canonical_contract(graph)) == key
            assert canonical_form(family.build(*family.read(graph))) == key
            assert owner.setdefault(key, tag) == tag


def test_doubled_tree_needs_no_isomorphism(monkeypatch):
    calls = []
    real = families.isomorphic

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(families, "isomorphic", counted)
    info = classify_genus(doubled_tree((0, 0, 1, 1)))
    assert (info.family, info.parameters) == ("doubled-tree", (3, 0, 0, 1, 1))
    assert calls == []


def test_census_grouping_validates_nothing(monkeypatch):
    """The census names a class from the key it has computed: once the
    atoms are cached, grouping runs no validation and no planarity
    search."""
    filt = CensusFilter(8, 16, allow_isolated=False)
    first = census(3, filt)
    calls = {"validate_adg": 0, "_left_right": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(adgraph, "validate_adg")
    counting(families, "validate_adg")
    counting(adgraph, "_left_right")
    again = census(3, filt)
    assert calls == {"validate_adg": 0, "_left_right": 0}
    assert [(c.family, c.parameters) for c in again] == [
        (c.family, c.parameters) for c in first]
