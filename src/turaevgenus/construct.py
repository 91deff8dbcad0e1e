"""Realize alternating decomposition graphs as adequate link diagrams.

Each vertex of degree 2m is replaced by a *wheel tangle*: a closed
circle strand crossed by m radial strands, each entering and leaving the
tangle once.  Around the circle the crossings alternate over/under, so
the tangle is alternating, its 2m endpoint signs alternate -, +, ...
around the boundary, and every face meets the boundary circle in at
most one arc.  In the all-A state the circle arcs and chords regroup
into one state circle fully inside the tangle, in the all-B state into
m of them; every crossing therefore joins an internal state circle to a
through-strand circle in both extreme states, which makes every
realized diagram adequate.

Splicing the tangles along the edges of the embedded graph produces a
diagram whose non-alternating arcs are exactly the graph's edges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .adgraph import AdGraph, planar_rotations
from .diagram import PlanarDiagram
from .errors import (
    NotEmbeddedError,
    NotValidatedError,
    SignMismatchError,
)
from .perm import two_colouring

#: the isolated-vertex realization; any reduced alternating diagram works,
#: the trefoil is the smallest with is_adequate applicable
_TREFOIL = ((0, 3, 1, 4), (2, 5, 3, 0), (4, 1, 5, 2))


@dataclass(frozen=True)
class TangleTemplate:
    """Alternating tangle with ``arity`` boundary endpoints.

    ``crossings`` hold local slot entries: nonnegative ints are internal
    arcs, ``("end", j)`` marks the stub that attaches to boundary
    endpoint j.  ``endpoint_signs[j]`` is '-' when the strand at endpoint
    j meets its first crossing as the under-strand.
    """

    arity: int
    crossings: tuple[tuple, ...]
    endpoint_signs: tuple[str, ...]


def wheel_tangle(m: int) -> TangleTemplate:
    """Wheel tangle for a degree-2m vertex: 2m crossings, a circle strand
    alternating over/under, and m radial bite strands."""
    if m < 1:
        raise ValueError("wheel tangle needs m >= 1")
    n = 2 * m
    # internal arcs: circle arcs gamma_j = j (from x_j to x_{j+1}),
    # chords delta_i = n + i (from x_{2i} to x_{2i+1})
    crossings = []
    for i in range(m):
        g_prev = (2 * i - 1) % n
        crossings.append((("end", 2 * i), 2 * i, n + i, g_prev))
        crossings.append((2 * i, ("end", 2 * i + 1), (2 * i + 1) % n, n + i))
    signs = tuple("-" if j % 2 == 0 else "+" for j in range(n))
    return TangleTemplate(n, tuple(crossings), signs)


def embed_planar(graph: AdGraph) -> AdGraph:
    """Attach a sphere rotation system.  A validated graph that already
    carries rotations is returned unchanged: ``validate_adg`` has checked
    them, or built them with ``planar_rotations``, which checks its own."""
    if graph.bipartition is None:
        raise NotValidatedError("embed_planar expects a validated graph")
    if graph.rotations is not None:
        return graph
    return replace(graph, rotations=planar_rotations(graph))


def edge_signs(graph: AdGraph) -> list[str]:
    """Assign '+'/'-' to edges so that signs alternate around every
    vertex of the embedding.

    Rotation-consecutive edges must differ, so this is a 2-coloring of
    the constraint graph; it exists because every face of a bipartite
    even-degree sphere map has even length.
    """
    if graph.rotations is None:
        raise NotEmbeddedError("edge signs need the embedding")
    sign, cycle = two_colouring(len(graph.edges), (
        (e, f, 1) for rot in graph.rotations for e, f in zip(rot, rot[1:] + rot[:1])
    ))
    if cycle is not None:
        raise SignMismatchError(
            f"edges {cycle[0]} and {cycle[-1]} forced to equal signs"
        )
    return ["-" if s else "+" for s in sign]


def realize_diagram(graph: AdGraph) -> PlanarDiagram:
    """A link diagram whose alternating decomposition graph is ``graph``.

    Requires a validated, embedded graph.  Isolated vertices are realized
    as disjoint trefoils.  The result is adequate and its Turaev genus
    equals the graph's.
    """
    if graph.bipartition is None:
        raise NotValidatedError("realize_diagram expects a validated graph")
    if graph.rotations is None:
        raise NotEmbeddedError("realize_diagram expects an embedded graph")
    signs = edge_signs(graph)

    next_arc = len(graph.edges) + 1  # arcs 1..e are the graph edges
    crossings: list[tuple[int, int, int, int]] = []

    for v in range(graph.n):
        rot = graph.rotations[v]
        d = len(rot)
        if d == 0:
            base = next_arc
            crossings.extend(
                tuple(base + a for a in x) for x in _TREFOIL
            )
            next_arc += 6
            continue
        template = wheel_tangle(d // 2)
        # rotate the attachment so tangle endpoint parity matches the
        # edge signs: endpoints with even index read '-'
        shift = 0 if signs[rot[0]] == "-" else 1
        attached = {}
        for j, e in enumerate(rot):
            endpoint = (j + shift) % d
            want = template.endpoint_signs[endpoint]
            if signs[e] != want:
                raise SignMismatchError(
                    f"edge {e} sign {signs[e]} does not match endpoint "
                    f"{endpoint} sign {want} at vertex {v}"
                )
            attached[endpoint] = e + 1
        base = next_arc
        for x in template.crossings:
            row = []
            for entry in x:
                if isinstance(entry, tuple):
                    row.append(attached[entry[1]])
                else:
                    row.append(base + entry)
            crossings.append(tuple(row))
        next_arc += 3 * (d // 2)
    return PlanarDiagram(crossings)
