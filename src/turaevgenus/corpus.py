"""Named diagrams and seeded generators used by the verification sweeps.

Besides the standard trefoil and figure-eight codes, two frozen PD
codes are provided: a nine-crossing diagram of the knot 9_42 (two
alternating tangles joined by four non-alternating edges, so its
decomposition graph is a doubled two-cycle) and an eight-crossing
connected two-component diagram with an annular alternating region
(whose decomposition graph is a disjoint union of two doubled
two-cycles, disconnected even though the diagram is connected).
"""

from __future__ import annotations

import random

from . import families
from .adgraph import AdGraph
from .construct import embed_planar, realize_diagram
from .diagram import (PlanarDiagram, connected_sum, is_adequate,
                      link_component_count, parse_pd)
from .errors import BadParametersError, TuraevError
from .perm import two_colouring

TREFOIL = "X 1 4 2 5 / X 3 6 4 1 / X 5 2 6 3"

FIGURE_EIGHT = "X 4 2 5 1 / X 8 6 1 5 / X 6 3 7 4 / X 2 7 3 8"

#: nine-crossing diagram of 9_42: an inner alternating two-tangle and an
#: outer one joined by four non-alternating edges
NINE_42 = (
    "X 2 16 3 15 / X 16 4 17 3 / X 14 2 15 1 / X 17 10 18 11 / "
    "X 11 18 12 1 / X 4 9 5 10 / X 12 8 13 7 / X 6 14 7 13 / X 8 5 9 6"
)

#: connected two-component diagram whose alternating decomposition has an
#: annular alternating region, so its decomposition graph is disconnected
ANNULAR_LINK = (
    "X 13 8 14 7 / X 4 13 5 16 / X 3 8 4 9 / X 11 6 12 7 / "
    "X 5 12 6 1 / X 15 2 16 1 / X 9 2 10 3 / X 10 15 11 14"
)


def trefoil() -> PlanarDiagram:
    return parse_pd(TREFOIL)


def figure_eight() -> PlanarDiagram:
    return parse_pd(FIGURE_EIGHT)


def nine_42() -> PlanarDiagram:
    return parse_pd(NINE_42)


def annular_link() -> PlanarDiagram:
    return parse_pd(ANNULAR_LINK)


def named_diagrams() -> dict[str, PlanarDiagram]:
    return {
        "trefoil": trefoil(),
        "figure-eight": figure_eight(),
        "9_42": nine_42(),
        "annular-link": annular_link(),
    }


def torus_2k(k: int) -> PlanarDiagram:
    """Standard alternating diagram of the (2, k) torus link: a closed
    twist region of k crossings."""
    if k < 1:
        raise ValueError("need k >= 1")
    if k == 1:
        return parse_pd("X 1 1 2 2")
    crossings = []
    for i in range(k):
        l_prev, l_cur = 1 + (i - 1) % k, 1 + i
        r_prev, r_cur = k + 1 + (i - 1) % k, k + 1 + i
        crossings.append((l_prev, l_cur, r_cur, r_prev))
    return PlanarDiagram(crossings)


def make_alternating(diagram: PlanarDiagram) -> PlanarDiagram:
    """Redecorate the crossings of a diagram so that every arc becomes
    alternating, keeping the underlying 4-valent plane graph.

    Swapping the strands of a crossing rotates its slot tuple by one.
    The arc constraints form a 2-colorable system on every planar
    diagram (checkerboard colorability of 4-valent plane graphs).
    """
    # across an arc from slot s1 of one crossing to slot s2 of another,
    # the two swap bits must sum to s1 + s2 + 1 (mod 2)
    swap, cycle = two_colouring(diagram.crossing_count, (
        (h1 >> 2, h2 >> 2, ((h1 & 3) + (h2 & 3) + 1) % 2)
        for h1, h2 in diagram.arc_ends.values()
    ))
    if cycle is not None:
        raise TuraevError("diagram is not checkerboard colorable")
    crossings = []
    for ci, (a, b, c, d) in enumerate(diagram.crossings):
        crossings.append((b, c, d, a) if swap[ci] else (a, b, c, d))
    return PlanarDiagram(crossings)


def random_adgraph(rng: random.Random, max_edges: int = 12) -> AdGraph:
    """A seeded random validated, embedded alternating decomposition
    graph, mixing family instances, disjoint unions, and one-sums.  The
    families and parameter choices drawn are those whose instances are
    always bipartite, hence valid decomposition graphs.  Every atom has
    at least 2 edges, so ``max_edges`` below 2 raises
    ``BadParametersError``."""
    if max_edges < 2:
        raise BadParametersError(
            f"random_adgraph needs max_edges >= 2, got {max_edges}")

    def atom() -> AdGraph:
        roll = rng.randrange(8)
        if roll == 0:
            return families.doubled_path(rng.randint(1, 3))
        if roll == 1:
            return families.doubled_cycle(2 * rng.randint(1, 3))
        if roll == 2:
            base = rng.choice((1, 2))
            return families.doubled_theta(
                *(base + 2 * rng.randint(0, 1) for _ in range(3)))
        if roll == 3:
            return families.k4_doubled_paths(
                2 * rng.randint(1, 2), 2 * rng.randint(1, 2))
        if roll == 4:
            return families.k4_two_sum(2, 2)
        if roll == 5:
            return families.c4_legs(*(rng.randint(0, 2) for _ in range(4)))
        if roll == 6:
            return families.k4_tilde_two_sum(
                *(rng.randint(0, 1) for _ in range(4)))
        return families.doubled_tree(
            [rng.randrange(max(1, i)) for i in range(rng.randint(1, 4))])

    while True:
        graph = atom()
        if rng.random() < 0.3:
            other = atom()
            if graph.edge_count + other.edge_count <= max_edges:
                merged = graph.disjoint_union(other)
                if rng.random() < 0.5:
                    graph = merged
                else:
                    graph = families.one_sum_components(
                        merged,
                        rng.randrange(graph.n),
                        graph.n + rng.randrange(other.n),
                    )
        if graph.edge_count <= max_edges:
            return embed_planar(graph)


def random_diagram(rng: random.Random, max_edges: int = 12) -> PlanarDiagram:
    """Seeded random realized diagram."""
    return realize_diagram(random_adgraph(rng, max_edges))


def alternating_knot_corpus(
    max_crossings: int = 12,
) -> list[tuple[str, PlanarDiagram]]:
    """Reduced alternating knot diagrams with at most ``max_crossings``
    crossings: odd (2, k) torus diagrams, the figure eight, and
    alternating redecorations of their connected sums.

    Connected sums of reduced alternating knot diagrams keep a reduced
    underlying map with one strand, so the redecorated diagram is again
    a reduced alternating diagram of a known non-split knot.
    """
    # the summands below need the (2, k) torus diagrams up to k = 9
    table = {f"torus-2-{k}": torus_2k(k)
             for k in range(3, max(max_crossings, 9) + 1, 2)}
    table["figure-eight"] = figure_eight()
    out = [(name, d) for name, d in table.items()
           if d.crossing_count <= max_crossings]
    summands = [
        ("torus-2-3", "torus-2-3"),
        ("torus-2-3", "torus-2-5"),
        ("torus-2-3", "torus-2-7"),
        ("torus-2-3", "torus-2-9"),
        ("torus-2-5", "torus-2-5"),
        ("torus-2-5", "torus-2-7"),
        ("figure-eight", "torus-2-3"),
        ("figure-eight", "torus-2-5"),
        ("figure-eight", "torus-2-7"),
        ("figure-eight", "figure-eight"),
        ("torus-2-3", "torus-2-3", "torus-2-3"),
        ("torus-2-3", "torus-2-3", "torus-2-5"),
        ("figure-eight", "torus-2-3", "torus-2-3"),
        ("figure-eight", "figure-eight", "torus-2-3"),
        ("figure-eight", "figure-eight", "figure-eight"),
        ("torus-2-3", "torus-2-3", "torus-2-3", "torus-2-3"),
    ]
    for combo in summands:
        if sum(table[name].crossing_count for name in combo) > max_crossings:
            continue
        diagram = table[combo[0]]
        for name in combo[1:]:
            other = table[name]
            diagram = connected_sum(
                diagram, next(iter(diagram.arc_ends)), other,
                next(iter(other.arc_ends)),
            )
        alt = make_alternating(diagram)
        if link_component_count(alt) != 1 or not is_adequate(alt):
            raise TuraevError(f"{'#'.join(combo)} is not an adequate knot diagram")
        out.append(("#".join(combo), alt))
    return out
