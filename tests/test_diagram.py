import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from turaevgenus import corpus, diagram
from turaevgenus.diagram import (
    LaurentPoly,
    PlanarDiagram,
    bracket_span,
    classify_arcs,
    connected_sum,
    insert_twist,
    is_adequate,
    jones_polynomial,
    kauffman_bracket,
    link_component_count,
    parse_pd,
    resolve_state,
    state_circle_counts,
    turaev_genus_diagram,
    write_pd,
)
from turaevgenus.errors import (
    ArcMultiplicityError,
    ArcNotFoundError,
    BadParametersError,
    DisconnectedError,
    EmptyDiagramError,
    MalformedLineError,
    NonPlanarMapError,
    ParityError,
    TooLargeError,
)
from turaevgenus.perm import orbits

TREFOIL = corpus.TREFOIL
KINK = "X 1 1 2 2"


def diagrams_strategy():
    """Seeded random realized diagrams, via hypothesis integers."""
    return st.integers(min_value=0, max_value=10**6).map(
        lambda s: corpus.random_diagram(random.Random(s), max_edges=8)
    )


# --- parsing -----------------------------------------------------------------

def test_parse_trefoil():
    d = parse_pd(TREFOIL)
    assert d.crossing_count == 3
    assert len(d.arc_ends) == 6
    assert d.split_components == 1


def test_parse_empty():
    d = parse_pd("# just a comment\n\n")
    assert d.crossing_count == 0
    assert d.split_components == 0
    assert turaev_genus_diagram(d) == 0


def test_parse_kink_euler():
    d = parse_pd(KINK)
    assert d.crossing_count == 1
    assert len(d.arc_ends) == 2
    # V - E + F = 1 - 2 + 3 = 2
    assert orbits(d.face_step())[1] == 3


def test_parse_errors():
    with pytest.raises(MalformedLineError):
        parse_pd("Y 1 2 3 4")
    with pytest.raises(MalformedLineError):
        parse_pd("X 1 2 3")
    with pytest.raises(MalformedLineError):
        parse_pd("X 1 2 3 -4")
    # int() takes these, the reader does not: a fullwidth digit, a '_'
    # separator, a '+' sign
    for bad in ("X \uff11 4 2 5 / X 3 6 4 1 / X 5 2 6 3",
                "X 1_0 4 2 5", "X +1 4 2 5"):
        with pytest.raises(MalformedLineError):
            parse_pd(bad)
    with pytest.raises(ArcMultiplicityError):
        parse_pd("X 1 2 3 4")
    # interleaved loops at one crossing only close up on a torus
    with pytest.raises(NonPlanarMapError):
        parse_pd("X 1 2 1 2")


def test_constructor_rejects_non_integers():
    # int() would truncate 1.9 and parse '3' into the trefoil
    for bad in ([(1.9, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)],
                [(1, 4, 2, 5), ("3", 6, 4, 1), (5, 2, 6, 3)],
                [(1, 4, 2, 5), (3, 6, 4, True), (5, 2, 6, 3)]):
        with pytest.raises(MalformedLineError, match="arc ids must be integers"):
            PlanarDiagram(bad)


def test_parse_disjoint_diagrams_in_one_file():
    text = TREFOIL + "\n# second split component\n" + \
        "X 7 10 8 11 / X 9 12 10 7 / X 11 8 12 9"
    d = parse_pd(text)
    assert d.crossing_count == 6
    assert d.split_components == 2
    assert turaev_genus_diagram(d) == 0


def test_write_pd_round_trip(named):
    """Every way of building a diagram keeps to what a PD code says."""
    trefoil, nine_42 = named["trefoil"], named["9_42"]
    rng = random.Random(5)
    cases = list(named.values()) + [
        nine_42.mirror(),
        trefoil.disjoint_union(nine_42),
        connected_sum(trefoil, 1, nine_42, 3),
        insert_twist(nine_42, 2),
    ]
    cases += [corpus.random_diagram(rng, max_edges=10) for _ in range(4)]
    for d in cases:
        again = parse_pd(write_pd(d))
        assert again.crossings == d.crossings, d
        assert again.split_components == d.split_components, d


# --- states and genus -------------------------------------------------------------

def test_trefoil_states():
    d = parse_pd(TREFOIL)
    assert set(state_circle_counts(d)) == {2, 3}


def test_kink_states():
    d = parse_pd(KINK)
    assert set(state_circle_counts(d)) == {1, 2}


def test_genus_trefoil_zero():
    assert turaev_genus_diagram(parse_pd(TREFOIL)) == 0


def test_genus_9_42_is_one(named):
    assert turaev_genus_diagram(named["9_42"]) == 1


def test_genus_split_union_adds():
    t = parse_pd(TREFOIL)
    union = t.disjoint_union(t)
    assert union.split_components == 2
    assert turaev_genus_diagram(union) == 0


def test_convention_swap_exchanges_states(named):
    """The mirror image swaps the A- and B-smoothings."""
    for d in named.values():
        s_a, s_b = state_circle_counts(d)
        assert state_circle_counts(d.mirror()) == (s_b, s_a)
        assert d.mirror().mirror().crossings == d.crossings


def test_mirror_of_trefoil_inverts_the_variable():
    d = parse_pd(TREFOIL)
    m = d.mirror()
    assert state_circle_counts(d) == (3, 2)
    assert state_circle_counts(m) == (2, 3)
    assert jones_polynomial(m).coeffs == {
        -e: c for e, c in jones_polynomial(d).coeffs.items()}
    assert kauffman_bracket(m).coeffs == {
        -e: c for e, c in kauffman_bracket(d).coeffs.items()}


def test_mirror_preserves_genus(named):
    for d in named.values():
        assert turaev_genus_diagram(d.mirror()) == turaev_genus_diagram(d)


@settings(max_examples=25, deadline=None)
@given(diagrams_strategy())
def test_state_sum_bound_random(d):
    s_a, s_b = state_circle_counts(d)
    assert s_a + s_b <= d.crossing_count + 2 * d.split_components
    assert turaev_genus_diagram(d) >= 0


# --- arcs ---------------------------------------------------------------------

def test_trefoil_all_alternating():
    kinds = classify_arcs(parse_pd(TREFOIL))
    assert all(k.alternating for k in kinds.values())


def test_9_42_four_nonalternating(named):
    kinds = classify_arcs(named["9_42"])
    assert sum(1 for k in kinds.values() if not k.alternating) == 4


def test_sign_convention():
    kinds = classify_arcs(parse_pd(corpus.NINE_42))
    signs = sorted(k.sign for k in kinds.values() if not k.alternating)
    assert signs == ["+", "+", "-", "-"]


# --- surgery -----------------------------------------------------------------

def test_connected_sum_of_trefoils():
    t = parse_pd(TREFOIL)
    d = connected_sum(t, 1, t, 1)
    assert d.crossing_count == 6
    assert d.split_components == 1
    assert turaev_genus_diagram(d) == 0


def test_connected_sum_missing_arc():
    t = parse_pd(TREFOIL)
    with pytest.raises(ArcNotFoundError):
        connected_sum(t, 99, t, 1)
    with pytest.raises(ArcNotFoundError):
        connected_sum(t, 1, PlanarDiagram([]), 1)


def test_connected_sum_additivity(named, rng):
    pool = [d for d in named.values()]
    for _ in range(25):
        d1, d2 = rng.choice(pool), rng.choice(pool)
        a1, a2 = rng.choice(list(d1.arc_ends)), rng.choice(list(d2.arc_ends))
        total = connected_sum(d1, a1, d2, a2)
        assert turaev_genus_diagram(total) == \
            turaev_genus_diagram(d1) + turaev_genus_diagram(d2)


def test_insert_twist_trefoil():
    t = parse_pd(TREFOIL)
    d = insert_twist(t, 1)
    assert d.crossing_count == 4
    assert turaev_genus_diagram(d) == 0
    # all arcs of the twisted alternating diagram stay alternating
    assert all(k.alternating for k in classify_arcs(d).values())


def test_insert_twist_preserves_genus(named, rng):
    for d in named.values():
        arc = rng.choice(list(d.arc_ends))
        once = insert_twist(d, arc)
        assert turaev_genus_diagram(once) == turaev_genus_diagram(d)
        twice = insert_twist(once, rng.choice(list(once.arc_ends)))
        assert turaev_genus_diagram(twice) == turaev_genus_diagram(d)


def test_insert_twist_missing_arc():
    with pytest.raises(ArcNotFoundError):
        insert_twist(parse_pd(TREFOIL), 77)


# --- bracket ------------------------------------------------------------------

def test_trefoil_span():
    d = parse_pd(TREFOIL)
    assert bracket_span(d) == 3
    # span equals crossing number on reduced alternating diagrams
    assert bracket_span(d) + turaev_genus_diagram(d) == d.crossing_count


def test_trefoil_jones_polynomial():
    # V(trefoil) in the bracket variable, t = A^-4; this PD is a
    # left-handed table diagram so its mirror's values are negated
    poly = jones_polynomial(parse_pd(TREFOIL))
    assert poly.coeffs in (
        {4: 1, 12: 1, 16: -1},
        {-4: 1, -12: 1, -16: -1},
    )


def test_unknot_span():
    assert bracket_span(parse_pd(KINK)) == 0


def test_figure_eight_span(named):
    assert bracket_span(named["figure-eight"]) == 4


def test_span_read_off_the_bracket(monkeypatch):
    """The writhe factor shifts every exponent alike, so the bracket and
    the Jones polynomial have one span, and ``bracket_span`` needs no
    writhe pass."""
    named = corpus.named_diagrams()
    diagrams = [d for _, d in corpus.alternating_knot_corpus(14)] + [named["9_42"]]
    spans = []
    for d in diagrams + [d.mirror() for d in diagrams]:
        jones = jones_polynomial(d)
        assert kauffman_bracket(d).span == jones.span
        spans.append(bracket_span(d, poly=jones))
    monkeypatch.setattr(diagram, "writhe", None)  # a writhe pass would raise
    assert [bracket_span(d) for d in diagrams + [d.mirror() for d in diagrams]] == spans
    # reduced alternating knots have span c, 9_42 (9 crossings) has 6;
    # a mirror has the span of its original
    assert spans == 2 * ([d.crossing_count for d in diagrams[:-1]] + [6])


def test_bracket_raw_trefoil():
    poly = kauffman_bracket(parse_pd(TREFOIL))
    assert poly.span == 12
    assert len(poly.coeffs) == 3


def test_bracket_of_empty_diagram_rejected():
    # zero circles has no delta power
    with pytest.raises(EmptyDiagramError):
        kauffman_bracket(PlanarDiagram([]))
    with pytest.raises(EmptyDiagramError):
        jones_polynomial(parse_pd("# just a comment\n"))


def test_bracket_limits(monkeypatch):
    monkeypatch.setenv("ADG_MAX_STATES", "2")
    with pytest.raises(TooLargeError):
        bracket_span(parse_pd(TREFOIL))
    monkeypatch.delenv("ADG_MAX_STATES")
    with pytest.raises(DisconnectedError):
        bracket_span(parse_pd(TREFOIL).disjoint_union(parse_pd(TREFOIL)))


@pytest.mark.parametrize("value", [
    "abc", "-5", "0", "", " 1_8 ", "1_8", "\uff11\uff18", " 18", "+18",
])
def test_bad_state_limit_rejected(monkeypatch, value):
    monkeypatch.setenv("ADG_MAX_STATES", value)
    with pytest.raises(BadParametersError) as exc:
        kauffman_bracket(parse_pd(TREFOIL))
    assert str(exc.value) == (
        f"ADG_MAX_STATES must be a positive integer, got {value!r}")


def test_laurent_poly():
    p = LaurentPoly({2: 1, 0: -1})
    q = LaurentPoly({-2: 3})
    assert (p + q).coeffs == {2: 1, 0: -1, -2: 3}
    assert (p * q).coeffs == {0: 3, -2: -3}
    assert LaurentPoly({5: 0}).coeffs == {}
    assert LaurentPoly().span == 0
    assert p.span == 2


# --- adequacy -----------------------------------------------------------------

def test_trefoil_adequate():
    assert is_adequate(parse_pd(TREFOIL))


def test_kink_not_adequate():
    assert not is_adequate(parse_pd(KINK))


def test_adequate_needs_crossings():
    with pytest.raises(EmptyDiagramError):
        is_adequate(PlanarDiagram([]))


def adequate_by_flips(d):
    """The definition: every single flip away from the all-A and the
    all-B state strictly decreases the circle count."""
    n = d.crossing_count
    for base, flip in (("A", "B"), ("B", "A")):
        labels = [base] * n
        base_count = resolve_state(d, labels)
        for ci in range(n):
            labels[ci] = flip
            if resolve_state(d, labels) >= base_count:
                return False
            labels[ci] = base
    return True


def adequacy_cases():
    rng = random.Random(7)
    cases = list(corpus.named_diagrams().values())
    cases += [corpus.torus_2k(k) for k in range(1, 8)]
    cases += [corpus.random_diagram(rng, max_edges=10) for _ in range(25)]
    cases += [d for _, d in corpus.alternating_knot_corpus(9)]
    # a kink on any arc makes one extreme state inadequate
    cases += [insert_twist(d, rng.choice(list(d.arc_ends))) for d in list(cases)]
    return cases


def test_is_adequate_matches_flip_definition():
    outcomes = []
    for d in adequacy_cases():
        for x in (d, d.mirror()):
            expected = adequate_by_flips(x)
            assert is_adequate(x) == expected, x
            outcomes.append(expected)
    assert True in outcomes and False in outcomes


def bracket_cases():
    """Diagrams of at most 12 crossings on which merges and splits meet
    short circles and several components: the named diagrams, (2, k)
    torus diagrams, realized diagrams, split unions, kinked diagrams
    (a kink's loop is a 2-half-edge circle), connected sums and the
    mirror of each."""
    rng = random.Random(11)
    named = corpus.named_diagrams()
    trefoil, eight, nine_42 = (
        named["trefoil"], named["figure-eight"], named["9_42"])
    kink = parse_pd(KINK)
    cases = list(named.values())
    cases += [corpus.torus_2k(k) for k in range(1, 6)]
    cases += [corpus.random_diagram(rng, max_edges=6) for _ in range(10)]
    cases += [
        trefoil.disjoint_union(eight),
        kink.disjoint_union(kink),
        kink.disjoint_union(trefoil).disjoint_union(kink),
        # four split kinks: a state of 4 crossings with 8 circles
        kink.disjoint_union(kink).disjoint_union(kink).disjoint_union(kink),
        corpus.torus_2k(2).disjoint_union(nine_42),
        connected_sum(trefoil, 1, eight, 3),
        connected_sum(nine_42, 5, trefoil, 2),
        connected_sum(eight, 2, eight, 7),
    ]
    for d in list(cases):
        if d.crossing_count <= 10:
            once = insert_twist(d, rng.choice(list(d.arc_ends)))
            cases.append(insert_twist(once, rng.choice(list(once.arc_ends))))
    return cases + [d.mirror() for d in cases]


def test_bracket_matches_state_by_state_sum():
    """The Gray-code tally equals the plain sum over all 2^c states."""
    delta = LaurentPoly({2: -1, -2: -1})
    delta_pows = [LaurentPoly({0: 1})]
    for _ in range(2 * 12 - 1):
        delta_pows.append(delta_pows[-1] * delta)
    cases = bracket_cases()
    assert max(d.crossing_count for d in cases) == 12
    assert max(d.split_components for d in cases) == 4
    for d in cases:
        n = d.crossing_count
        total = LaurentPoly()
        for mask in range(1 << n):
            labels = ["B" if mask >> ci & 1 else "A" for ci in range(n)]
            circles = resolve_state(d, labels)
            total = total + LaurentPoly.monomial(
                2 * labels.count("A") - n) * delta_pows[circles - 1]
        assert kauffman_bracket(d) == total, d


def test_bracket_labels_the_circles_once(monkeypatch):
    """One circle count, for the all-A state; each flip updates only the
    circles it touches (a recount per state would make 4,096 calls)."""
    d = corpus.torus_2k(6)
    calls = []

    def counted(*args):
        calls.append(1)
        return orbits(*args)

    monkeypatch.setattr(diagram, "orbits", counted)
    kauffman_bracket(d)
    assert len(calls) == 1


def lines_per_state(d):
    """Lines run by ``kauffman_bracket(d)`` and every call under it, per
    state: a count of its work that does not depend on the host."""
    count = [0]

    def trace(frame, event, arg):
        if event == "line":
            count[0] += 1
        return trace

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        kauffman_bracket(d)
    finally:
        sys.settrace(before)
    return count[0] / 2 ** d.crossing_count


def test_bracket_flip_costs_the_smaller_circle():
    """On a chain of kinks each flip merges or splits a short loop and
    the long circle through the rest.  Relabelling the larger circle,
    tracing a split from one end only, or recounting every circle would
    make the work per state grow with the crossings; it does not."""
    chains = [corpus.torus_2k(1)]
    while chains[-1].crossing_count < 14:
        d = chains[-1]
        chains.append(insert_twist(d, max(d.arc_ends)))
    assert lines_per_state(chains[13]) <= lines_per_state(chains[9])


def test_bracket_rejects_a_flip_that_leaves_a_circle_whole():
    """Off the sphere a flip on one circle may keep it whole; the state
    sum raises instead of miscounting."""
    d = parse_pd(KINK)
    # the kink's one crossing with its strands paired across (slot h to
    # slot h + 2), the pairing of a crossing on a torus
    d.partner[:] = [2, 3, 0, 1]
    with pytest.raises(ParityError):
        kauffman_bracket(d)


# --- misc ---------------------------------------------------------------------

def test_link_component_count(named):
    assert link_component_count(named["trefoil"]) == 1
    assert link_component_count(named["9_42"]) == 1
    assert link_component_count(named["annular-link"]) == 2
    assert link_component_count(corpus.torus_2k(4)) == 2
