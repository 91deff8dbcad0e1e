import random

import pytest

from turaevgenus import corpus
from turaevgenus.errors import BadParametersError


def _rows(max_crossings: int) -> list:
    return [(name, d.crossings)
            for name, d in corpus.alternating_knot_corpus(max_crossings)]


def test_knot_corpus_at_every_cap():
    """Below 9 crossings the corpus is the 16-crossing one cut at the
    cap, as above it: every diagram is within the cap, in the same
    order, with the same crossings."""
    full = corpus.alternating_knot_corpus(16)
    for cap in range(17):
        rows = _rows(cap)
        assert rows == [(name, d.crossings) for name, d in full
                        if d.crossing_count <= cap]
        assert all(len(crossings) <= cap for _, crossings in rows)
    assert [len(_rows(cap)) for cap in (0, 3, 4, 8, 9, 12, 16)] == [
        0, 1, 2, 8, 11, 22, 24]
    assert [name for name, _ in _rows(9)] == [
        "torus-2-3", "torus-2-5", "torus-2-7", "torus-2-9", "figure-eight",
        "torus-2-3#torus-2-3", "torus-2-3#torus-2-5",
        "figure-eight#torus-2-3", "figure-eight#torus-2-5",
        "figure-eight#figure-eight", "torus-2-3#torus-2-3#torus-2-3",
    ]


@pytest.mark.parametrize("max_edges", [-1, 0, 1])
def test_random_adgraph_needs_room_for_an_atom(max_edges):
    """Every atom has at least 2 edges, so a smaller bound is refused
    rather than drawn from forever."""
    with pytest.raises(BadParametersError):
        corpus.random_adgraph(random.Random(1), max_edges)


def test_random_adgraph_at_the_smallest_bound():
    for seed in range(20):
        assert corpus.random_adgraph(random.Random(seed), 2).edge_count == 2
