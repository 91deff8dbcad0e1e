import random
import sys

from hypothesis import given, settings, strategies as st

from turaevgenus import corpus, verify
from turaevgenus.adgraph import AdGraph, turaev_genus_graph, validate_adg
from turaevgenus.construct import embed_planar, realize_diagram
from turaevgenus.decompose import decompose, twisted_genus
from turaevgenus.diagram import (
    classify_arcs,
    connected_sum,
    insert_twist,
    turaev_genus_diagram,
)
from turaevgenus.families import doubled_cycle, isomorphic

import decompose_oracle


def test_trefoil_decomposition():
    dec = decompose(corpus.trefoil())
    assert dec.graph.n == 1
    assert dec.graph.edge_count == 0
    assert dec.curves == ()
    assert dec.r_alt == 1


def test_9_42_decomposition():
    dec = decompose(corpus.nine_42())
    assert len(dec.curves) == 2
    c22 = doubled_cycle(2)
    assert isomorphic(
        AdGraph(dec.graph.n, dec.graph.edges), AdGraph(c22.n, c22.edges)
    )[0]
    assert dec.r_alt == 2
    # every marked point sits on a non-alternating arc, twice per arc
    per_arc = {}
    for curve in dec.curves:
        for mp in curve:
            per_arc[mp] = per_arc.get(mp, 0) + 1
    assert all(count == 1 for count in per_arc.values())
    assert len(per_arc) == 2 * dec.graph.edge_count
    assert dec.region_curves == ((0,), (1,))


def test_annular_link_decomposition():
    d = corpus.annular_link()
    assert d.split_components == 1  # connected diagram
    dec = decompose(d)
    assert dec.graph.component_count() == 2  # disconnected graph
    two = doubled_cycle(2).disjoint_union(doubled_cycle(2))
    assert isomorphic(
        AdGraph(dec.graph.n, dec.graph.edges), AdGraph(two.n, two.edges)
    )[0]
    assert dec.r_alt == 3
    # the annular region is bounded by two curves from distinct components
    comp_of = {}
    for idx, comp in enumerate(dec.graph.components()):
        for v in comp:
            comp_of[v] = idx
    assert any(
        len(curves) == 2 and comp_of[curves[0]] != comp_of[curves[1]]
        for curves in dec.region_curves
    )
    assert dec.region_curves == ((0,), (1, 2), (3,))


def test_split_alternating_components_are_isolated_vertices():
    d = corpus.trefoil().disjoint_union(corpus.figure_eight())
    dec = decompose(d)
    assert dec.graph.n == 2
    assert dec.graph.edge_count == 0
    assert dec.r_alt == 2


def test_edge_arc_correspondence(named):
    for d in named.values():
        dec = decompose(d)
        non_alt = sorted(
            a for a, k in classify_arcs(d).items() if not k.alternating
        )
        assert list(dec.edge_arcs) == non_alt
        assert dec.graph.edge_count == len(non_alt)


def test_signs_alternate_around_curves(named):
    for d in named.values():
        dec = decompose(d)
        for rot in dec.graph.rotations:
            for i in range(len(rot)):
                assert dec.signs[rot[i]] != dec.signs[rot[(i + 1) % len(rot)]]


def test_no_loops_and_even_degrees(named):
    for d in named.values():
        dec = decompose(d)
        assert all(dg % 2 == 0 for dg in dec.graph.degrees())
        assert all(u != v for u, v in dec.graph.edges)


def test_twisted_genus_matches(named):
    for d in named.values():
        assert twisted_genus(d) == turaev_genus_diagram(d)


def test_graph_level_theorem_for_equal_graphs():
    # two diagrams with isomorphic decomposition graphs share their genus
    d1 = corpus.nine_42()
    d2 = realize_diagram(embed_planar(validate_adg(doubled_cycle(2))))
    g1, g2 = decompose(d1).graph, decompose(d2).graph
    assert isomorphic(AdGraph(g1.n, g1.edges), AdGraph(g2.n, g2.edges))[0]
    assert turaev_genus_diagram(d1) == turaev_genus_diagram(d2) == 1


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_oracle_triangle_random(seed):
    d = corpus.random_diagram(random.Random(seed), max_edges=8)
    g = turaev_genus_diagram(d)
    dec = decompose(d)
    assert twisted_genus(d) == g
    assert turaev_genus_graph(dec.graph) == g


def test_decomposition_matches_oracle_on_fixed_diagrams(named):
    fixed = list(named.values()) + [corpus.torus_2k(k) for k in range(1, 9)]
    for d in fixed:
        assert decompose(d) == decompose_oracle.decompose(d)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(4, 16))
def test_decomposition_matches_oracle_random(seed, max_edges):
    """The whole ``Decomposition``, curves, graph and regions, equals the
    oracle's on a realized diagram, its mirror, and its disjoint union,
    connected sum and twisted connected sum with a second one."""
    rng = random.Random(seed)
    d = corpus.random_diagram(rng, max_edges=max_edges)
    e = corpus.random_diagram(rng, max_edges=max_edges)
    summed = connected_sum(d, rng.choice(d.arcs), e, rng.choice(e.arcs))
    twisted = insert_twist(summed, rng.choice(summed.arcs))
    for x in (d, d.mirror(), d.disjoint_union(e), summed, twisted):
        assert decompose(x) == decompose_oracle.decompose(x)


def test_verify_decomposes_each_diagram_once(monkeypatch):
    """``suite_decompose`` takes the twisted genus from the decomposition
    it already holds: one ``decompose`` per diagram."""
    calls = []
    real = sys.modules["turaevgenus.decompose"].decompose

    def counted(diagram):
        calls.append(diagram)
        return real(diagram)

    # twisted_genus calls the module's own binding, verify its import
    monkeypatch.setattr(sys.modules["turaevgenus.decompose"], "decompose", counted)
    monkeypatch.setattr(verify, "decompose", counted)
    res = verify.suite_decompose(random.Random("0:suite_decompose"), 5)
    assert res.ok
    assert len(calls) == len(set(map(id, calls))) == 11
