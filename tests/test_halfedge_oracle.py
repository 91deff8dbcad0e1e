"""The flat half-edge passes against their slow references in
``halfedge_oracle``: equal results on valid inputs, and the same
exception type and text on corrupted ones.

Valid inputs are ``random_adgraph`` embeddings, family graphs and the
diagrams realized from them, their ribbon graphs with random twist bits
and scattered half-edge ids.  Corrupted inputs are rotation tables with
a missing, repeated, unknown, negative or misplaced edge, or with the
wrong number of tables; PD codes that use an arc once or three times;
ribbon graphs whose two sides disagree; and PD and graph lines holding
tokens that ``int`` reads but ``errors.integer`` rejects.
"""

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from turaevgenus import adgraph, corpus, diagram, families, ribbon
from turaevgenus.adgraph import AdGraph, half_edges, to_ribbon
from turaevgenus.construct import embed_planar, realize_diagram
from turaevgenus.errors import ArcMultiplicityError, integers

import halfedge_oracle as oracle


def _outcome(fn, *args):
    """``("ok", fn(*args))``, or the type and text of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


FAMILY_GRAPHS = [
    families.doubled_cycle(6),
    families.doubled_theta(1, 3, 5),
    families.k4_doubled_paths(2, 4),
    families.k4_two_sum(2, 4),
    families.c4_legs(1, 0, 2, 1),
    families.k4_tilde_two_sum(1, 0, 1, 1),
    families.doubled_tree([0, 0, 1, 2, 2]),
    families.isolated_vertices(3),
    families.doubled_cycle(4).disjoint_union(families.doubled_theta(2, 2, 2)),
]


def _embedded(seed: int) -> AdGraph:
    """A ``random_adgraph`` embedding or an embedded family graph."""
    rng = random.Random(seed)
    if rng.random() < 0.3:
        return embed_planar(adgraph.validate_adg(rng.choice(FAMILY_GRAPHS)))
    return corpus.random_adgraph(rng, rng.choice((2, 6, 12, 20)))


def _scattered(graph: AdGraph, rng: random.Random) -> ribbon.RibbonGraph:
    """The graph's ribbon graph with random twist bits and half-edge ids
    moved to random distinct integers, negative ones included."""
    flat = to_ribbon(graph)
    total = sum(map(len, flat.vertices))
    ids = rng.sample(range(-3 * total - 5, 3 * total + 5), total)
    return ribbon.RibbonGraph(
        tuple(tuple(ids[h] for h in rot) for rot in flat.vertices),
        tuple((ids[a], ids[b], rng.random() < 0.5) for a, b, _ in flat.edges),
    )


def _same_ribbon_answers(r: ribbon.RibbonGraph) -> None:
    assert ribbon.boundary_count(r) == oracle.boundary_count(r.vertices, r.edges)
    assert ribbon.is_orientable(r) == oracle.is_orientable(r.vertices, r.edges)
    assert r.component_count() == oracle.component_count(r.vertices, r.edges)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_valid_inputs_agree(seed):
    graph = _embedded(seed)
    assert half_edges(graph) == oracle.half_edges(graph)
    for twisted in (False, True):
        _same_ribbon_answers(to_ribbon(graph, twisted))
    _same_ribbon_answers(_scattered(graph, random.Random(seed)))

    d = realize_diagram(graph)
    crossings, arc_ends, partner = oracle.pair_arcs(d.crossings)
    assert d.crossings == crossings
    assert list(d.arc_ends.items()) == list(arc_ends.items())
    assert d.partner == partner
    kinds = diagram.classify_arcs(d)
    assert list(kinds.items()) == list(oracle.classify_arcs(arc_ends).items())
    assert len({id(kind) for kind in kinds.values()}) <= 3


# -- corrupted rotation tables ------------------------------------------------

def _corrupt_rotations(graph: AdGraph, rng: random.Random, kind: str):
    rot = [list(r) for r in graph.rotations]
    m = graph.edge_count
    full = [v for v, r in enumerate(rot) if r]
    v = rng.choice(full) if full else 0
    if kind == "missing" and full:
        del rot[v][rng.randrange(len(rot[v]))]
    elif kind == "repeated" and full:
        rot[rng.randrange(len(rot))].insert(0, rng.choice(rot[v]))
    elif kind == "unknown":
        rot[v].insert(rng.randint(0, len(rot[v])), m + rng.randrange(3))
    elif kind == "negative":
        where = rng.randint(0, len(rot[v]))
        rot[v][where:where + rng.randint(0, 1)] = [-rng.randint(1, m + 2)]
    elif kind == "misplaced" and full:
        e = rot[v].pop(rng.randrange(len(rot[v])))
        rot[rng.randrange(len(rot))].append(e)
    elif kind == "replaced" and m:
        # an edge index in range: one edge listed once, another three times
        rot[v][rng.randrange(len(rot[v]))] = rng.randrange(m)
    elif kind == "emptied" and m >= 2:
        # both slots of one edge given to another: counts 0 and 4
        a, b = rng.sample(range(m), 2)
        rot = [[b if e == a else e for e in r] for r in rot]
    elif kind == "tables":
        if rot and rng.random() < 0.5:
            rot.pop(rng.randrange(len(rot)))
        else:
            rot.insert(rng.randint(0, len(rot)), [])
    return AdGraph(graph.n, graph.edges, rotations=tuple(map(tuple, rot)))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.sampled_from(["missing", "repeated", "unknown", "negative", "misplaced",
                        "replaced", "emptied", "tables"]))
def test_corrupted_rotation_tables_raise_the_same_error(seed, kind):
    rng = random.Random(seed)
    bad = _corrupt_rotations(_embedded(seed), rng, kind)
    assert _outcome(half_edges, bad) == _outcome(oracle.half_edges, bad)


def test_rotation_table_corruptions_are_rejected():
    """Each kind of corruption, on one graph, raises; the messages name
    the first bad edge in edge order, else the unknown edges."""
    graph = embed_planar(adgraph.validate_adg(families.doubled_cycle(2)))
    # 2 vertices, edges 0..3, each at both vertices
    for rotations in [
        ((0, 1, 2), (3, 2, 1, 0)),          # missing
        ((0, 1, 2, 3, 3), (3, 2, 1, 0)),    # repeated
        ((0, 1, 2, 3, 4), (3, 2, 1, 0)),    # unknown
        ((0, 1, 2, 3, -1), (3, 2, 1, 0)),   # negative
        ((0, 1, 2, 3, 0), (3, 2, 1)),       # misplaced
        ((0, 1, 2, 2), (3, 2, 1, 0)),       # replaced: 3 once, 2 three times
        ((0, 1, 1, 1), (1, 1, 2, 3)),       # 0 once, 1 five times, ...
        ((0, 1, 2, 3),),                    # one table short
    ]:
        bad = AdGraph(graph.n, graph.edges, rotations=rotations)
        outcome = _outcome(half_edges, bad)
        assert outcome[0] != "ok", rotations
        assert outcome == _outcome(oracle.half_edges, bad), rotations


# -- corrupted PD codes ---------------------------------------------------------

def _corrupt_pd(crossings, rng: random.Random, kind: str):
    flat = [a for x in crossings for a in x]
    fresh = max(flat) + 1
    if kind == "once":
        flat[rng.randrange(len(flat))] = fresh + rng.randrange(3)
    elif kind == "thrice":
        i, j = rng.sample(range(len(flat)), 2)
        flat[i] = flat[j]
    else:  # two fresh arcs, the greater one first
        i, j = sorted(rng.sample(range(len(flat)), 2))
        flat[i], flat[j] = fresh + 1, fresh
    return [tuple(flat[k:k + 4]) for k in range(0, len(flat), 4)]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.sampled_from(["once", "thrice", "two"]))
def test_corrupted_pd_codes_raise_the_same_error(seed, kind):
    rng = random.Random(seed)
    d = realize_diagram(_embedded(seed))
    if not d.crossings:
        return
    bad = _corrupt_pd(d.crossings, rng, kind)
    new = _outcome(diagram.PlanarDiagram, bad)
    old = _outcome(oracle.pair_arcs, bad)
    if old[0] == "ok":  # both picked slots held one arc: nothing changed
        return
    assert new == old


def test_the_first_bad_arc_in_order_of_appearance_is_named():
    for crossings, arc, count in [
        ([(7, 1, 2, 3), (1, 2, 3, 4)], 7, 1),      # 7 before 4
        ([(9, 5, 5, 6), (5, 6, 8, 8)], 9, 1),      # 5 three times after 9
        ([(3, 3, 3, 1), (1, 2, 2, 4)], 3, 3),      # 3 before 4
        ([(2, 2, 2, 2), (1, 1, 3, 3)], 2, 4),
    ]:
        new = _outcome(diagram.PlanarDiagram, crossings)
        assert new == (ArcMultiplicityError,
                       f"arc {arc} appears {count} times, expected 2")
        assert new == _outcome(oracle.pair_arcs, crossings)


def test_bad_crossings_raise_the_same_error():
    for crossings in [
        [(1, 2, 3)], [(1, 2, 3, 4, 5)], [(1, 2, 3, True)], [(1.0, 1, 2, 2)],
        [(1, 1, 2, 2), ("1", 3, 3, 4)], [(1, 2), (1, 2, 3, "x")],
        [(1, 2, 3, 1.5), (1, 2)],
    ]:
        new = _outcome(diagram.PlanarDiagram, crossings)
        assert new[0] != "ok"
        assert new == _outcome(oracle.pair_arcs, crossings)


# -- corrupted ribbon graphs ------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.sampled_from(["vertex", "edge", "drop-vertex", "drop-edge", "foreign"]))
def test_ribbon_graphs_with_disagreeing_sides_are_rejected_alike(seed, kind):
    rng = random.Random(seed)
    r = _scattered(_embedded(seed), rng)
    vertices = [list(rot) for rot in r.vertices]
    edges = [list(e) for e in r.edges]
    ids = [h for rot in vertices for h in rot] or [0]
    if kind == "vertex":  # a half-edge twice at the vertices
        rng.choice(vertices).append(rng.choice(ids))
    elif kind == "edge" and edges:  # a half-edge twice in the edges
        e = rng.choice(edges)
        e[rng.randrange(2)] = rng.choice(ids)
    elif kind == "drop-vertex" and any(vertices):
        rot = rng.choice([rot for rot in vertices if rot])
        rot.pop()
    elif kind == "drop-edge" and edges:
        edges.pop()
    elif kind == "foreign" and edges:  # an id in the edges that no vertex holds
        e = rng.choice(edges)
        e[0] = max(ids) + 1
    vertices = tuple(map(tuple, vertices))
    edges = tuple(map(tuple, edges))
    new = _outcome(ribbon.RibbonGraph, vertices, edges)
    old = _outcome(oracle.check_ribbon, vertices, edges)
    assert (new[0] == "ok") == (old[0] == "ok")
    if new[0] != "ok":
        assert new == old


# -- integer tokens in PD and graph lines ---------------------------------------------

#: tokens that ``int`` reads and ``errors.integer`` rejects, tokens both
#: read, and the small arc and vertex ids that let a line get further
TOKENS = ["+1", "1_0", "-1", "0", "٣", "99999999999999999999",
          "1", "2", "3", "12", "007"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6))
def test_integers_reads_a_line_as_integer_does(tokens):
    assert _outcome(integers, tokens) == _outcome(oracle.read_integers, tokens)


def _both_parses(parse, module, text):
    """``parse(text)`` with the line reader and with the per-token one."""
    new = _outcome(parse, text)
    with mock.patch.object(module, "integers", oracle.read_integers):
        old = _outcome(parse, text)
    return new, old


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), min_size=4, max_size=4),
       st.sampled_from(["X {} {} {} {}", "X 1 1 2 2 / X {} {} {} {}",
                        "X 1 4 2 5 / X 3 6 4 1 / X 5 2 6 {}"]))
def test_pd_lines_read_as_before(tokens, template):
    text = template.format(*tokens)
    new, old = _both_parses(diagram.parse_pd, diagram, text)
    if new[0] == "ok":
        new, old = ("ok", new[1].crossings), ("ok", old[1].crossings)
    assert new == old


def _graph_fields(result):
    kind, graph = result
    return (kind, (graph.n, graph.edges, graph.rotations)) if kind == "ok" else result


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), min_size=6, max_size=6),
       st.sampled_from([
           "v {}\ne 1 2\ne 2 1",
           "v 2\ne {} {}\ne 1 2",
           "v 2\ne 1 2\ne 1 2\nrot {} : {} {}\nrot 2 : 2 1",
           "v 2\ne 1 2\ne 1 2\nrot 1 : 1 2\nrot 2 : {} {}",
       ]))
def test_graph_lines_read_as_before(tokens, template):
    text = template.format(*tokens)
    new, old = _both_parses(adgraph.parse_graph_file, adgraph, text)
    assert _graph_fields(new) == _graph_fields(old)
