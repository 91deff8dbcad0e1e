"""The orbit tracer and the union-find against naive set-based
decompositions, the two-colouring solver against brute force, and the
orbit closure against the union-find."""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from turaevgenus.errors import TuraevError
from turaevgenus.perm import (
    components, cycles, fundamental_cycles, groups, least_points, orbit, orbits,
    two_colouring,
)

permutations = st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.permutations(list(range(n)))
)


def involution(points):
    """A fixed-point-free involution pairing consecutive entries."""
    out = [0] * len(points)
    for a, b in zip(points[::2], points[1::2]):
        out[a], out[b] = b, a
    return out


involution_pairs = st.integers(min_value=0, max_value=20).flatmap(
    lambda m: st.tuples(
        st.permutations(list(range(2 * m))), st.permutations(list(range(2 * m)))
    )
).map(lambda pq: (involution(pq[0]), involution(pq[1])))

pair_lists = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=40),
    )
)


def naive_classes(n, linked):
    """Merge sets until no class is linked to another; classes come out
    sorted by least member, as frozensets."""
    classes = [{i} for i in range(n)]
    changed = True
    while changed:
        changed = False
        for a in classes:
            for b in classes:
                if a is not b and any(linked(x, y) for x in a for y in b):
                    a |= b
                    classes.remove(b)
                    changed = True
                    break
            if changed:
                break
    return sorted((frozenset(c) for c in classes), key=min)


def as_classes(labels, count):
    return [frozenset(g) for g in groups(labels, count)]


@settings(max_examples=60, deadline=None)
@given(permutations)
def test_orbits_are_the_cycles(step):
    labels, count = orbits(step)
    expected = naive_classes(len(step), lambda x, y: step[x] == y or step[y] == x)
    assert as_classes(labels, count) == expected
    # the cycle lists walk the same classes in step order, and come with
    # the same labels
    walk_labels, walks = cycles(step)
    assert walk_labels == labels
    assert [frozenset(c) for c in walks] == expected
    for c in walks:
        assert c[0] == min(c)
        assert all(step[c[i]] == c[(i + 1) % len(c)] for i in range(len(c)))


@settings(max_examples=60, deadline=None)
@given(involution_pairs)
def test_orbits_via_are_the_group_orbits(pair):
    step, via = pair
    labels, count = orbits(step, via)
    expected = naive_classes(
        len(step), lambda x, y: y in (step[x], via[x])
    )
    assert as_classes(labels, count) == expected


@settings(max_examples=60, deadline=None)
@given(pair_lists)
def test_components_match_naive_merge(case):
    n, pairs = case
    labels, count = components(n, pairs)
    linked = set(pairs) | {(b, a) for a, b in pairs}
    assert as_classes(labels, count) == naive_classes(
        n, lambda x, y: (x, y) in linked
    )


def test_components_of_a_long_path_is_fast():
    # joining i to i + 1 in order links the roots into one chain; the
    # labelling pass must not walk that chain from every point
    n = 20_000
    start = time.perf_counter()
    labels, count = components(n, [(i, i + 1) for i in range(n - 1)])
    assert (count, set(labels)) == (1, {0})
    assert time.perf_counter() - start < 0.5


def test_non_permutation_does_not_close_up():
    with pytest.raises(TuraevError):
        orbits([1, 2, 1])
    with pytest.raises(TuraevError):
        cycles([0, 0])


constraint_cases = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 min_size=1, max_size=12),
        st.lists(st.integers(0, 1), min_size=12, max_size=12),
    )
)


def check_two_colouring(n, constraints):
    """Compare ``two_colouring`` with all 2^n assignments; returns
    whether a colouring came back."""
    solvable = any(
        all(x[u] ^ x[v] == b for u, v, b in constraints)
        for x in itertools.product((0, 1), repeat=n)
    )
    colours, cycle = two_colouring(n, constraints)
    assert (colours is not None, cycle is None) == (solvable, solvable)
    if solvable:
        assert all(colours[u] ^ colours[v] == b for u, v, b in constraints)
        labels, _ = components(n, [(u, v) for u, v, _ in constraints])
        assert all(colours[p] == 0 for p in least_points(labels))
        return True
    # a closed walk along the constraints: the bits of some choice of
    # constraints between consecutive points sum to one
    sums = {0}
    for p, q in zip(cycle, cycle[1:] + cycle[:1]):
        bits = {b for u, v, b in constraints if {u, v} == {p, q}}
        assert bits, f"no constraint joins {p} and {q}"
        sums = {s ^ b for s in sums for b in bits}
    assert 1 in sums
    return False


@settings(max_examples=200, deadline=None)
@given(constraint_cases)
def test_two_colouring_matches_brute_force(case):
    # each case yields a consistent system (bits read off an assignment),
    # the same system plus one constraint contradicting its last, which
    # has no solution, and a system with arbitrary bits
    n, x, pairs, bits = case
    consistent = [(u, v, x[u] ^ x[v]) for u, v in pairs]
    u, v, b = consistent[-1]
    broken = consistent + [(v, u, b ^ 1)]
    arbitrary = [(u, v, b) for (u, v), b in zip(pairs, bits)]
    assert check_two_colouring(n, consistent)
    assert not check_two_colouring(n, broken)
    check_two_colouring(n, arbitrary)


@settings(max_examples=200, deadline=None)
@given(pair_lists)
def test_fundamental_cycles_span_the_even_subgraphs(case):
    """Each of the 2^nu bit sets picks the edges with an odd number of its
    bits; these edge sets are distinct, every one is even at every point,
    and an edge's label is 0 exactly when deleting it adds a component."""
    n, pairs = case
    pairs = [(u, v) for u, v in pairs if u != v]
    def trees(edges):
        linked = set(edges) | {(v, u) for u, v in edges}
        return len(naive_classes(n, lambda x, y: (x, y) in linked))

    labels, count = fundamental_cycles(n, pairs)
    assert count == trees(pairs)
    nullity = len(pairs) - n + count
    picked = set()
    for bits in range(1 << min(nullity, 6)):
        odd = [e for e, label in enumerate(labels) if (label & bits).bit_count() % 2]
        degree = [0] * n
        for e in odd:
            for w in pairs[e]:
                degree[w] += 1
        assert all(d % 2 == 0 for d in degree)
        picked.add(tuple(odd))
    assert len(picked) == 1 << min(nullity, 6)
    for e, label in enumerate(labels):
        rest = pairs[:e] + pairs[e + 1:]
        assert (label == 0) == (trees(rest) > count)


def test_empty():
    assert orbits([]) == ([], 0)
    assert components(0, []) == ([], 0)
    assert cycles([]) == ([], [])
    assert two_colouring(0, []) == ([], None)
    assert fundamental_cycles(0, []) == ([], 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(st.lists(st.permutations(list(range(n))), max_size=3),
                        st.integers(0, n - 1))))
def test_orbit_is_the_class_of_the_generators(case):
    """The orbit of a point under permutations is its class in the
    union-find of the pairs (x, g[x]); a set given to ``orbit`` grows."""
    gens, x = case
    n = len(gens[0]) if gens else x + 1
    labels, _ = components(n, [(v, g[v]) for g in gens for v in range(n)])
    expected = {v for v in range(n) if labels[v] == labels[x]}
    assert orbit(x, [g.__getitem__ for g in gens]) == expected
    reached = {-1}
    assert orbit(x, [g.__getitem__ for g in gens], reached) is reached
    assert reached == expected | {-1}
