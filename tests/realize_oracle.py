"""Realization as it was before each wheel tangle was written straight
from the rotation: the slow reference that ``tests/test_construct.py``
checks ``construct.realize_diagram`` against, crossing for crossing.

``TangleTemplate`` and ``wheel_tangle`` are the earlier generic tangle
layer, with ``("end", j)`` slots for the boundary endpoints, and
``realize_diagram`` is the earlier body, which attaches the edges by
endpoint sign and checks each edge's sign against the template's.
"""

from __future__ import annotations

from dataclasses import dataclass

from turaevgenus.adgraph import AdGraph
from turaevgenus.construct import edge_signs
from turaevgenus.diagram import PlanarDiagram
from turaevgenus.errors import (
    NotEmbeddedError,
    SignMismatchError,
)

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


def realize_diagram(graph: AdGraph) -> PlanarDiagram:
    """A link diagram whose alternating decomposition graph is ``graph``.

    Requires a validated, embedded graph.  Isolated vertices are realized
    as disjoint trefoils.  The result is adequate and its Turaev genus
    equals the graph's.
    """
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
