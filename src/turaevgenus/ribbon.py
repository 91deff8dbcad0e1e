"""Ribbon graphs: rotation systems with twist bits per edge band.

A ribbon graph is a vertex set, each vertex carrying a cyclic sequence
of half-edges, together with edges pairing the half-edges.  An edge band
may be flat or carry a half-twist.  Boundary components are traced on a
double cover of the half-edges, which handles twisted (and hence
possibly non-orientable) bands uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonOrientableError, ParityError
from .perm import components, orbits, two_colouring


@dataclass(frozen=True)
class RibbonGraph:
    """``vertices[i]`` is the counterclockwise cyclic order of half-edge
    ids at vertex ``i``; ``edges`` pairs the half-edges, with a twist
    flag per band."""

    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, bool], ...]

    def __post_init__(self):
        at_vertex = [h for rot in self.vertices for h in rot]
        in_edges = [h for (a, b, _) in self.edges for h in (a, b)]
        if sorted(at_vertex) != sorted(in_edges) or len(set(at_vertex)) != len(at_vertex):
            raise ValueError("half-edges must appear once in rotations, once in edges")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def component_count(self) -> int:
        owner = {h: vi for vi, rot in enumerate(self.vertices) for h in rot}
        return components(
            len(self.vertices), ((owner[a], owner[b]) for a, b, _ in self.edges)
        )[1]


def twist_all(graph: RibbonGraph) -> RibbonGraph:
    """Set every twist bit; idempotent."""
    return RibbonGraph(
        graph.vertices, tuple((a, b, True) for (a, b, _) in graph.edges)
    )


def boundary_count(graph: RibbonGraph) -> int:
    """Number of boundary circles of the ribbon surface.

    Tokens are (half-edge, direction) on a dense double cover: token
    ``2i + d`` is the i-th half-edge in rotation order, walking
    counterclockwise (d = 0) or clockwise (d = 1).  Crossing a flat band
    keeps the direction of the walk, a twisted band reverses it, and at
    a vertex the walk steps to the rotation neighbour in the current
    direction.  Every boundary circle is traced once per direction, so
    the orbit count halves.  Isolated vertices are disks and add one
    circle each.
    """
    index: dict[int, int] = {}
    neighbour: list[tuple[int, int]] = []  # (next, previous) in rotation
    isolated = 0
    for rot in graph.vertices:
        if not rot:
            isolated += 1
        base = len(neighbour)
        for i, h in enumerate(rot):
            index[h] = base + i
            neighbour.append((base + (i + 1) % len(rot), base + (i - 1) % len(rot)))
    step = [0] * (2 * len(neighbour))
    for a, b, twisted in graph.edges:
        for h, p in ((index[a], index[b]), (index[b], index[a])):
            for d in (0, 1):
                d2 = 1 - d if twisted else d
                step[2 * h + d] = 2 * neighbour[p][d2] + d2
    _, orbit_count = orbits(step)
    assert orbit_count % 2 == 0
    return orbit_count // 2 + isolated


def is_orientable(graph: RibbonGraph) -> bool:
    """A ribbon graph is orientable iff some set of vertex flips makes
    every band flat; a twisted loop can never be flattened."""
    owner = {h: vi for vi, rot in enumerate(graph.vertices) for h in rot}
    return two_colouring(
        len(graph.vertices), ((owner[a], owner[b], int(t)) for a, b, t in graph.edges)
    )[1] is None


def euler_genus(graph: RibbonGraph) -> int:
    """2k - v + e - f, valid in both the orientable and non-orientable case."""
    return (
        2 * graph.component_count()
        - graph.vertex_count
        + graph.edge_count
        - boundary_count(graph)
    )


def ribbon_genus(graph: RibbonGraph) -> int:
    """Orientable genus (2k - v + e - f) / 2."""
    eg = euler_genus(graph)
    if not is_orientable(graph):
        raise NonOrientableError(eg)
    if eg % 2 or eg < 0:
        raise ParityError(f"Euler genus {eg} is not twice an orientable genus")
    return eg // 2
