import random

import pytest
from hypothesis import given, settings, strategies as st

from turaevgenus import corpus
from turaevgenus.adgraph import (
    AdGraph,
    check_sphere_embedding,
    turaev_genus_graph,
    validate_adg,
)
from turaevgenus.construct import edge_signs, embed_planar, realize_diagram
from turaevgenus.decompose import decompose
from turaevgenus.diagram import classify_arcs, is_adequate, turaev_genus_diagram
from turaevgenus.errors import SignMismatchError
from turaevgenus.families import (
    c4_legs,
    doubled_cycle,
    doubled_path,
    doubled_theta,
    doubled_tree,
    isolated_vertices,
    isomorphic,
    k4_doubled_paths,
    k4_tilde_two_sum,
    k4_two_sum,
)
from turaevgenus import adgraph, construct
from turaevgenus.adgraph import half_edges
from turaevgenus.errors import NotPlanarError
from turaevgenus.perm import orbits

import realize_oracle as oracle


def tangle_boundary_faces_ok(template: oracle.TangleTemplate) -> bool:
    """Check that every face of the tangle meets the boundary circle in
    at most one arc: close the boundary with a hub vertex and demand the
    augmented map be a sphere whose hub-incident faces each pass the hub
    exactly once (so there are ``arity`` of them)."""
    for flip in (True, False):
        arcs: dict[object, list[int]] = {}
        rotations = []
        for ci, x in enumerate(template.crossings):
            for entry in x:
                arcs.setdefault(entry, []).append(ci)
            rotations.append(list(x))
        hub = len(template.crossings)
        order = range(template.arity)
        hub_rot = [("end", j) for j in (reversed(order) if flip else order)]
        for entry in hub_rot:
            arcs[entry].append(hub)
        keys = sorted(arcs, key=str)
        edge_index = {key: i for i, key in enumerate(keys)}
        edges = [(min(arcs[k]), max(arcs[k])) for k in keys]
        rot_tables = tuple(
            tuple(edge_index[e] for e in rot) for rot in rotations
        ) + (tuple(edge_index[e] for e in hub_rot),)
        graph = AdGraph(hub + 1, tuple(edges), rotations=rot_tables)
        try:
            check_sphere_embedding(graph)
        except NotPlanarError:
            continue
        _, face_step, vertex = half_edges(graph)
        face, _ = orbits(face_step)
        hub_faces = {face[h] for h in range(len(face)) if vertex[h] == hub}
        return len(hub_faces) == template.arity
    return False


def test_wheel_templates():
    for m in range(1, 7):
        t = oracle.wheel_tangle(m)
        assert t.arity == 2 * m
        assert len(t.crossings) == 2 * m
        assert t.endpoint_signs == tuple(
            "-" if j % 2 == 0 else "+" for j in range(2 * m)
        )
        assert tangle_boundary_faces_ok(t)


def _turned(graph: AdGraph, rng: random.Random) -> AdGraph:
    """The graph with each rotation table cyclically rotated by a random
    offset: the same cyclic orders, so the same sphere embedding, but
    another first edge, hence perhaps another endpoint shift."""
    rotations = []
    for rot in graph.rotations:
        k = rng.randrange(len(rot)) if rot else 0
        rotations.append(rot[k:] + rot[:k])
    return AdGraph(graph.n, graph.edges, rotations=tuple(rotations))


def _same_as_oracle(graph: AdGraph) -> None:
    check_sphere_embedding(graph)
    assert realize_diagram(graph).crossings == \
        oracle.realize_diagram(graph).crossings


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_edges=st.integers(2, 40),
       turn=st.integers(0, 2**32 - 1))
def test_realize_matches_template_oracle(seed, max_edges, turn):
    g = corpus.random_adgraph(random.Random(seed), max_edges)
    _same_as_oracle(_turned(g, random.Random(turn)))


def test_realize_matches_template_oracle_on_stars():
    # the hub of a doubled star with m leaves has degree 2m; every turn of
    # its rotation gives each first-edge sign in turn
    seen = set()
    for m in range(1, 7):
        g = embed_planar(validate_adg(doubled_tree((0,) * m)))
        hub = g.rotations[0]
        signs = edge_signs(g)
        for k in range(len(hub)):
            turned = AdGraph(g.n, g.edges,
                             rotations=(hub[k:] + hub[:k],) + g.rotations[1:])
            _same_as_oracle(turned)
            seen.add((len(hub), signs[hub[k]]))
    assert seen == {(2 * m, s) for m in range(1, 7) for s in "+-"}


def test_embed_planar_requires_validation():
    # a plain graph is validated on demand, not refused
    plain = AdGraph(2, ((0, 1), (0, 1)))
    assert embed_planar(plain) is validate_adg(plain)
    assert embed_planar(plain).rotations == ((0, 1), (1, 0))


def test_embed_planar_idempotent():
    g = embed_planar(validate_adg(AdGraph(2, ((0, 1),) * 4)))
    assert embed_planar(g) is g
    check_sphere_embedding(g)


def test_embed_planar_keeps_validated_rotations(monkeypatch):
    # validation searched and checked the embedding; embedding adds no check
    calls = []
    real = adgraph.check_sphere_embedding

    def counted(graph):
        calls.append(1)
        return real(graph)

    monkeypatch.setattr(adgraph, "check_sphere_embedding", counted)
    monkeypatch.setattr(construct, "check_sphere_embedding", counted, raising=False)
    embedded = embed_planar(validate_adg(doubled_cycle(6)))
    assert embedded.rotations is not None
    assert len(calls) == 1


def test_realize_requires_embedding():
    # every validated graph carries its embedding, small ones too
    v = validate_adg(AdGraph(2, ((0, 1),) * 4))
    assert v.rotations is not None and embed_planar(v) is v
    assert realize_diagram(v).crossings == realize_diagram(AdGraph(v.n, v.edges)).crossings


def test_edge_signs_alternate():
    g = embed_planar(validate_adg(AdGraph(2, ((0, 1),) * 4)))
    signs = edge_signs(g)
    for rot in g.rotations:
        for i in range(len(rot)):
            assert signs[rot[i]] != signs[rot[(i + 1) % len(rot)]]


def test_edge_signs_name_the_clashing_pair():
    # a triangle of single edges has odd faces, so signs cannot alternate
    g = AdGraph(3, ((0, 1), (1, 2), (0, 2)), rotations=((0, 2), (0, 1), (1, 2)))
    with pytest.raises(SignMismatchError,
                       match=r"^edges 1 and 2 forced to equal signs$"):
        edge_signs(g)


def test_realize_isolated_vertex_gives_alternating():
    g = embed_planar(validate_adg(isolated_vertices(1)))
    d = realize_diagram(g)
    assert d.crossing_count == 3
    dec = decompose(d)
    assert dec.graph.n == 1 and dec.graph.edge_count == 0
    assert is_adequate(d)


def test_realize_c2_genus_zero():
    c2 = validate_adg(AdGraph(2, ((0, 1), (0, 1))))
    d = realize_diagram(embed_planar(c2))
    assert turaev_genus_diagram(d) == 0
    dec = decompose(d)
    assert isomorphic(AdGraph(dec.graph.n, dec.graph.edges),
                      AdGraph(2, ((0, 1), (0, 1))))[0]


def test_realize_c22_structure():
    g = embed_planar(validate_adg(doubled_cycle(2)))
    d = realize_diagram(g)
    kinds = classify_arcs(d)
    non_alt = [a for a, k in kinds.items() if not k.alternating]
    assert len(non_alt) == 4
    assert turaev_genus_diagram(d) == 1
    # signs alternate around each tangle
    dec = decompose(d)
    for rot in dec.graph.rotations:
        signs = [dec.signs[e] for e in rot]
        assert all(signs[i] != signs[(i + 1) % len(signs)]
                   for i in range(len(signs)))


@pytest.mark.parametrize("spec", [
    (doubled_path, (2,)),
    (doubled_cycle, (4,)),
    (doubled_theta, (2, 2, 2)),
    (k4_doubled_paths, (2, 2)),
    (k4_two_sum, (2, 2)),
    (c4_legs, (1, 2, 0, 1)),
    (k4_tilde_two_sum, (0, 1, 1, 2)),
    (doubled_tree, ((0, 0, 1),)),
])
def test_round_trip_families(spec):
    build, params = spec
    g = build(*params)
    validated = embed_planar(validate_adg(AdGraph(g.n, g.edges)))
    d = realize_diagram(validated)
    dec = decompose(d)
    assert isomorphic(AdGraph(dec.graph.n, dec.graph.edges),
                      AdGraph(g.n, g.edges))[0]
    assert is_adequate(d)
    assert turaev_genus_diagram(d) == turaev_genus_graph(validated)


def test_round_trip_random(rng):
    for _ in range(10):
        g = corpus.random_adgraph(rng, max_edges=10)
        d = realize_diagram(g)
        dec = decompose(d)
        assert isomorphic(AdGraph(dec.graph.n, dec.graph.edges),
                          AdGraph(g.n, g.edges))[0]
        assert is_adequate(d)
        assert turaev_genus_diagram(d) == turaev_genus_graph(g)


def test_alternate_embeddings_agree():
    # mirroring every rotation is a different sphere embedding; the
    # twisted genus cannot change
    from turaevgenus.adgraph import to_ribbon
    from turaevgenus.ribbon import ribbon_genus, twist_all

    for g in (doubled_cycle(4), k4_doubled_paths(2, 2)):
        embedded = embed_planar(validate_adg(AdGraph(g.n, g.edges)))
        mirrored = AdGraph(
            embedded.n, embedded.edges,
            rotations=tuple(tuple(reversed(rot)) for rot in embedded.rotations),
        )
        check_sphere_embedding(mirrored)
        assert ribbon_genus(twist_all(to_ribbon(embedded))) == \
            ribbon_genus(twist_all(to_ribbon(mirrored)))
