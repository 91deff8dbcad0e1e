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
        # 2e distinct half-edges at the vertices, and the same set in the
        # 2e ends of the edges, which are then distinct too
        at_vertex = {h for rot in self.vertices for h in rot}
        in_edges = {a for a, _, _ in self.edges}
        in_edges.update(b for _, b, _ in self.edges)
        if not (sum(map(len, self.vertices)) == len(at_vertex) == 2 * len(self.edges)
                and at_vertex == in_edges):
            raise ValueError("half-edges must appear once in rotations, once in edges")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def component_count(self) -> int:
        owner = _owners(self)
        return components(
            len(self.vertices), ((owner[a], owner[b]) for a, b, _ in self.edges)
        )[1]


def _owners(graph: RibbonGraph) -> dict[int, int]:
    """The vertex holding each half-edge."""
    owner: dict[int, int] = {}
    for vi, rot in enumerate(graph.vertices):
        owner.update(dict.fromkeys(rot, vi))
    return owner


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
    the orbit count halves; an odd count raises ``ParityError``.
    Isolated vertices are disks and add one circle each.
    """
    index: dict[int, int] = {}
    nxt: list[int] = []  # rotation neighbours by dense position
    prv: list[int] = []
    isolated = 0
    for rot in graph.vertices:
        base = len(nxt)
        if not rot:
            isolated += 1
            continue
        index.update(zip(rot, range(base, base + len(rot))))
        nxt += range(base + 1, base + len(rot))
        nxt.append(base)
        prv.append(base + len(rot) - 1)
        prv += range(base, base + len(rot) - 1)
    step = [0] * (2 * len(nxt))
    for a, b, twisted in graph.edges:
        i, j = index[a], index[b]
        t = 1 if twisted else 0  # a twisted band swaps the two directions
        step[2 * i + t], step[2 * i + 1 - t] = 2 * nxt[j], 2 * prv[j] + 1
        step[2 * j + t], step[2 * j + 1 - t] = 2 * nxt[i], 2 * prv[i] + 1
    _, orbit_count = orbits(step)
    if orbit_count % 2:
        raise ParityError(
            f"{orbit_count} boundary walks do not pair up by direction")
    return orbit_count // 2 + isolated


def is_orientable(graph: RibbonGraph) -> bool:
    """A ribbon graph is orientable iff some set of vertex flips makes
    every band flat; a twisted loop can never be flattened."""
    owner = _owners(graph)
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
