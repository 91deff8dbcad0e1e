"""Ribbon graphs: rotation systems with twist bits per edge band.

A ribbon graph is a vertex set, each vertex carrying a cyclic sequence
of half-edges, together with edges pairing the half-edges.  An edge band
may be flat or carry a half-twist.  Boundary components are traced on a
double cover of the half-edges, which handles twisted (and hence
possibly non-orientable) bands uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Iterable

from .errors import NonOrientableError, ParityError
from .perm import components, orbits, two_colouring


@dataclass(frozen=True)
class RibbonGraph:
    """``vertices[i]`` is the counterclockwise cyclic order of half-edge
    ids at vertex ``i``; ``edges`` pairs the half-edges, with a twist
    flag per band.

    The readers share ``_flat``, ``(owner, other, twist, k)``, arrays over
    positions, position i being the i-th half-edge in rotation order:
    the vertex holding it, the position at its band's other end and the
    band's twist flag; k is the component count.  The constructor builds
    them while it checks outside input.
    """

    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, bool], ...]
    _flat: tuple = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        # 2e distinct half-edges at the vertices, each the end of one edge
        position = {h: i for i, h in enumerate(chain.from_iterable(self.vertices))}
        other, twist = [-1] * len(position), [False] * len(position)
        ok = sum(map(len, self.vertices)) == len(position) == 2 * len(self.edges)
        for a, b, t in self.edges if ok else ():
            i, j = position.get(a), position.get(b)
            ok = None not in (i, j) and i != j and other[i] < 0 and other[j] < 0
            if not ok:
                break
            other[i], other[j], twist[i], twist[j] = j, i, t, t
        if not ok:
            raise ValueError("half-edges must appear once in rotations, once in edges")
        owner = [v for v, rot in enumerate(self.vertices) for _ in rot]
        k = components(len(self.vertices), (
            (owner[i], owner[j]) for i, j in enumerate(other) if i < j))[1]
        object.__setattr__(self, "_flat", (owner, other, twist, k))

    @classmethod
    def _unchecked(cls, vertices: tuple, edges: tuple, flat: tuple) -> RibbonGraph:
        graph = object.__new__(cls)
        vars(graph).update(vertices=vertices, edges=edges, _flat=flat)
        return graph

    @classmethod
    def from_slots(cls, degrees: Iterable[int], owner: list[int], other: list[int],
                   twisted: bool, k: int) -> RibbonGraph:
        """The ribbon graph whose half-edge ids are its positions, every
        band twisted or none, built unchecked on ``owner`` and ``other``
        as ``adgraph.half_edges`` gives them."""
        ends = list(accumulate(degrees, initial=0))
        return cls._unchecked(
            tuple(tuple(range(a, b)) for a, b in zip(ends, ends[1:])),
            tuple((h, p, twisted) for h, p in enumerate(other) if h < p),
            (owner, other, [twisted] * ends[-1], k))

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def component_count(self) -> int:
        return self._flat[3]


def twist_all(graph: RibbonGraph) -> RibbonGraph:
    """Set every twist bit; idempotent.  The copy shares ``graph``'s
    checked arrays and component count."""
    owner, other, _, k = graph._flat
    return RibbonGraph._unchecked(
        graph.vertices, tuple((a, b, True) for (a, b, _) in graph.edges),
        (owner, other, [True] * len(other), k))


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
    ends = list(accumulate(map(len, graph.vertices), initial=0))
    # rotation neighbours by dense position
    nxt, prv = list(range(1, ends[-1] + 1)), list(range(-1, ends[-1] - 1))
    isolated = 0
    for a, b in zip(ends, ends[1:]):
        if a < b:  # the rotation at positions a..b-1 closes up
            nxt[b - 1], prv[a] = a, b - 1
        else:
            isolated += 1
    _, other, twist, _ = graph._flat
    step = [0] * (2 * len(nxt))
    for i, j in enumerate(other):
        t = 1 if twist[i] else 0  # a twisted band swaps the two directions
        step[2 * i + t], step[2 * i + 1 - t] = 2 * nxt[j], 2 * prv[j] + 1
    _, orbit_count = orbits(step)
    if orbit_count % 2:
        raise ParityError(
            f"{orbit_count} boundary walks do not pair up by direction")
    return orbit_count // 2 + isolated


def is_orientable(graph: RibbonGraph) -> bool:
    """A ribbon graph is orientable iff some set of vertex flips makes
    every band flat; a twisted loop can never be flattened."""
    owner, other, twist, _ = graph._flat
    return two_colouring(len(graph.vertices), (
        (owner[i], owner[j], int(twist[i])) for i, j in enumerate(other) if i < j
    ))[1] is None


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
