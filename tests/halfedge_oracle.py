"""The half-edge layers as they were before they became flat-array
passes: the slow references that ``tests/test_halfedge_oracle.py``
checks the package against, result for result and error for error.

Each function is the earlier body, unchanged but for its signature:
``half_edges`` pairs slots through a dict of slot lists, the ribbon
functions index half-edges through per-element dicts and tuples,
``pair_arcs`` is the ``PlanarDiagram`` constructor's arc pairing,
``classify_arcs`` builds one ``ArcKind`` per arc, and ``read_integers``
reads a line token by token with ``errors.integer``.
"""

from __future__ import annotations

from typing import Sequence

from turaevgenus.adgraph import AdGraph
from turaevgenus.diagram import ArcKind
from turaevgenus.errors import (
    ArcMultiplicityError,
    MalformedLineError,
    NotEmbeddedError,
    integer,
)
from turaevgenus.perm import components, orbits, two_colouring


def half_edges(graph: AdGraph) -> tuple[list[int], list[int], list[int]]:
    if graph.rotations is None:
        raise NotEmbeddedError("graph carries no rotation system")
    if len(graph.rotations) != graph.n:
        raise NotEmbeddedError(
            f"{len(graph.rotations)} rotation tables for {graph.n} vertices"
        )
    vertex: list[int] = []
    succ: list[int] = []
    slots: dict[int, list[int]] = {}
    for v, rot in enumerate(graph.rotations):
        base = len(vertex)
        for i, e in enumerate(rot):
            slots.setdefault(e, []).append(base + i)
            vertex.append(v)
            succ.append(base + (i + 1) % len(rot))
    partner = [0] * len(vertex)
    for e, ends in enumerate(graph.edges):
        occ = slots.pop(e, [])
        if sorted(vertex[h] for h in occ) != list(ends):
            raise NotEmbeddedError(
                f"edge {e} {ends} sits at vertices "
                f"{sorted(vertex[h] for h in occ)} in the rotation system"
            )
        a, b = occ
        partner[a], partner[b] = b, a
    if slots:
        raise NotEmbeddedError(
            f"rotation system lists unknown edges {sorted(slots)}"
        )
    return partner, [succ[p] for p in partner], vertex


def check_ribbon(vertices, edges) -> None:
    """``RibbonGraph.__post_init__``."""
    at_vertex = [h for rot in vertices for h in rot]
    in_edges = [h for (a, b, _) in edges for h in (a, b)]
    if sorted(at_vertex) != sorted(in_edges) or len(set(at_vertex)) != len(at_vertex):
        raise ValueError("half-edges must appear once in rotations, once in edges")


def component_count(vertices, edges) -> int:
    owner = {h: vi for vi, rot in enumerate(vertices) for h in rot}
    return components(
        len(vertices), ((owner[a], owner[b]) for a, b, _ in edges)
    )[1]


def boundary_count(vertices, edges) -> int:
    index: dict[int, int] = {}
    neighbour: list[tuple[int, int]] = []  # (next, previous) in rotation
    isolated = 0
    for rot in vertices:
        if not rot:
            isolated += 1
        base = len(neighbour)
        for i, h in enumerate(rot):
            index[h] = base + i
            neighbour.append((base + (i + 1) % len(rot), base + (i - 1) % len(rot)))
    step = [0] * (2 * len(neighbour))
    for a, b, twisted in edges:
        for h, p in ((index[a], index[b]), (index[b], index[a])):
            for d in (0, 1):
                d2 = 1 - d if twisted else d
                step[2 * h + d] = 2 * neighbour[p][d2] + d2
    _, orbit_count = orbits(step)
    assert orbit_count % 2 == 0
    return orbit_count // 2 + isolated


def is_orientable(vertices, edges) -> bool:
    owner = {h: vi for vi, rot in enumerate(vertices) for h in rot}
    return two_colouring(
        len(vertices), ((owner[a], owner[b], int(t)) for a, b, t in edges)
    )[1] is None


def pair_arcs(crossings) -> tuple[tuple, dict[int, tuple[int, int]], list[int]]:
    """The ``PlanarDiagram`` constructor up to its split components:
    ``(crossings, arc_ends, partner)``."""
    crossings = tuple(map(tuple, crossings))
    for x in crossings:
        if len(x) != 4:
            raise MalformedLineError(0, str(x), "crossing needs 4 arcs")
        if any(type(a) is not int for a in x):
            raise MalformedLineError(0, str(x), "arc ids must be integers")

    ends: dict[int, list[int]] = {}
    for ci, x in enumerate(crossings):
        for slot, arc in enumerate(x):
            ends.setdefault(arc, []).append(4 * ci + slot)
    for arc, occ in ends.items():
        if len(occ) != 2:
            raise ArcMultiplicityError(arc, len(occ))
    arc_ends: dict[int, tuple[int, int]] = {
        a: (occ[0], occ[1]) for a, occ in sorted(ends.items())
    }
    partner: list[int] = [0] * (4 * len(crossings))
    for h1, h2 in arc_ends.values():
        partner[h1], partner[h2] = h2, h1
    return crossings, arc_ends, partner


def classify_arcs(arc_ends: dict[int, tuple[int, int]]) -> dict[int, ArcKind]:
    out = {}
    for arc, (h1, h2) in arc_ends.items():
        unders = (h1 & 1 == 0) + (h2 & 1 == 0)
        if unders == 1:
            out[arc] = ArcKind(True)
        elif unders == 2:
            out[arc] = ArcKind(False, "-")
        else:
            out[arc] = ArcKind(False, "+")
    return out


def read_integers(tokens: Sequence[str]) -> list[int]:
    """The per-token reading of ``parse_pd`` and ``adgraph._ints``."""
    return [integer(t) for t in tokens]
