"""Realize alternating decomposition graphs as adequate link diagrams.

Each vertex of degree d = 2m is replaced by a *wheel tangle*: a closed
circle strand crossed by m radial strands, each entering and leaving the
tangle once.  Around the circle the crossings alternate over/under, so
the tangle is alternating, its 2m endpoint signs alternate -, +, ...
around the boundary, and every face meets the boundary circle in at
most one arc.  In the all-A state the circle arcs and chords regroup
into one state circle fully inside the tangle, in the all-B state into
m of them; every crossing therefore joins an internal state circle to a
through-strand circle in both extreme states, which makes every
realized diagram adequate.

A vertex takes 3m fresh arcs from ``base``: circle arc ``base + j`` runs
from crossing x_j to x_{j+1} (mod d), chord ``base + d + i`` carries
radial strand i from x_{2i} to x_{2i+1}.  With ``end[j]`` the edge arc
at boundary endpoint j, strand i crosses at
x_{2i} = (end[2i], base+2i, base+d+i, base+(2i-1) mod d) and
x_{2i+1} = (base+2i, end[2i+1], base+(2i+1) mod d, base+d+i), so the
strand at endpoint j meets its first crossing as the under-strand, sign
'-', exactly when j is even.  ``edge_signs`` alternates the signs
around each rotation, so rotation position j goes to endpoint
j + shift (mod d), ``shift`` being 0 when the first edge is '-'.

Splicing the tangles along the edges of the embedded graph produces a
diagram whose non-alternating arcs are exactly the graph's edges.
"""

from __future__ import annotations

from .adgraph import AdGraph, validate_adg
from .diagram import PlanarDiagram
from .errors import NotEmbeddedError, SignMismatchError
from .perm import two_colouring

#: the isolated-vertex realization; any reduced alternating diagram works,
#: the trefoil is the smallest with is_adequate applicable
_TREFOIL = ((0, 3, 1, 4), (2, 5, 3, 0), (4, 1, 5, 2))


def embed_planar(graph: AdGraph) -> AdGraph:
    """The graph validated and embedded: ``validate_adg``, which checks
    a carried rotation system or finds one."""
    return validate_adg(graph)


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

    The graph is validated and embedded on demand by ``embed_planar``.
    Isolated vertices are realized as disjoint trefoils.  The result is
    adequate and its Turaev genus equals the graph's.
    """
    graph = embed_planar(graph)
    signs = edge_signs(graph)

    base = len(graph.edges) + 1  # arcs 1..e are the graph edges
    crossings: list[tuple[int, int, int, int]] = []
    for rot in graph.rotations:
        d = len(rot)
        if d == 0:
            crossings.extend(tuple(base + a for a in x) for x in _TREFOIL)
            base += 6
            continue
        shift = 0 if signs[rot[0]] == "-" else 1
        end = [rot[(j - shift) % d] + 1 for j in range(d)]
        for i in range(d // 2):
            crossings.append((end[2 * i], base + 2 * i, base + d + i,
                              base + (2 * i - 1) % d))
            crossings.append((base + 2 * i, end[2 * i + 1],
                              base + (2 * i + 1) % d, base + d + i))
        base += 3 * (d // 2)
    return PlanarDiagram(crossings)
