"""Alternating decompositions of link diagrams.

Every non-alternating arc is marked with two points, one near each
endpoint.  Inside each face, a curve joins the marked point at the end
of one non-alternating traversal to the marked point at the start of
the next, found by walking the face permutation ``face_step``.  The
joins close up into disjoint simple curves; each curve becomes a vertex
of the alternating decomposition graph and each non-alternating arc an
edge between the two curves crossing it.  The alternating regions that
hold crossings are the classes of crossings joined by alternating arcs.

The face walks all inherit one handedness from the rotation system, so
reading the crossed arcs along each curve yields rotation tables that
are consistent on every component sphere; the Euler check is run on the
result as a guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import adgraph
from .adgraph import AdGraph
from .diagram import PlanarDiagram, classify_arcs
from .errors import TuraevError
from .perm import components, cycles
from .ribbon import ribbon_genus


class MarkedPoint(NamedTuple):
    """A transversal intersection of a decomposition curve with a
    non-alternating arc, near endpoint ``end`` (0 or 1) of the arc."""

    arc: int
    end: int


@dataclass(frozen=True)
class Decomposition:
    #: the marked points along each curve, in traversal order
    curves: tuple[tuple[MarkedPoint, ...], ...]
    #: vertex i < len(curves) is curve i; each later vertex is the
    #: isolated vertex of an alternating split component
    graph: AdGraph
    #: non-alternating arc id per graph edge
    edge_arcs: tuple[int, ...]
    #: '+' / '-' per graph edge
    signs: tuple[str, ...]
    #: per alternating region, the sorted curve indices on its boundary
    region_curves: tuple[tuple[int, ...], ...]

    @property
    def r_alt(self) -> int:
        """The number of alternating regions."""
        return len(self.region_curves)


def decompose(diagram: PlanarDiagram) -> Decomposition:
    """The curves, graph and alternating regions of ``diagram``.

    Marked point ``(arc, end)``, near half-edge ``arc_ends[arc][end]``, is
    numbered ``2 * rank(arc) + end`` among the non-alternating arcs.

    *Curves.*  A face walk along a non-alternating arc from ``h`` to
    ``partner[h]`` passes the marked point near ``h``, then the one near
    ``partner[h]``.  From there a curve runs inside the face to the
    marked point at the start of the face's next non-alternating
    traversal ``g``, the first return of ``face_step`` from ``h`` to such
    half-edges.  A first return of a permutation is a permutation, and
    ``partner`` permutes those half-edges, so ``succ`` is one; its cycles
    are the curves.

    *Regions.*  Each curve segment cuts from its face an outer piece,
    holding the corners and the alternating arcs from ``partner[h]`` to
    ``g``; what is left of a face with segments is its central piece,
    bounded by segments and the middles of non-alternating arcs, with no
    corner.  Regions are pieces glued across shared arcs and at
    crossings.  The curves meet the diagram only near the ends of
    non-alternating arcs, so an alternating arc, its two crossings and
    the four corners at each lie in one region.  Conversely the corners
    of an outer piece, or of a face with no segment, are joined by its
    alternating arcs; pieces glued across an alternating arc, across a
    non-alternating arc beyond a marked point, or at a crossing share a
    corner's crossing; pieces glued across a non-alternating arc's
    middle are both central.  So the regions with crossings are the
    classes of crossings joined by alternating arcs.  The other side of
    each segment is central, so the curves bounding a class are those
    through a marked point ``(arc, end)`` whose crossing, at that end of
    the arc, is in the class.
    """
    kinds = classify_arcs(diagram)
    na_arcs = sorted(a for a, k in kinds.items() if not k.alternating)
    partner = diagram.partner
    point = [-1] * len(partner)
    for i, arc in enumerate(na_arcs):
        h0, h1 = diagram.arc_ends[arc]
        point[h0], point[h1] = 2 * i, 2 * i + 1

    step = diagram.face_step()
    succ = [0] * (2 * len(na_arcs))
    for h, p in enumerate(point):
        if p >= 0:
            g = step[h]
            while point[g] < 0:
                g = step[g]
            succ[point[partner[h]]] = point[g]

    # curves: cycles of the join successor, in first-encounter order
    curve_of, point_cycles = cycles(succ)
    curves = [
        tuple(MarkedPoint(na_arcs[p >> 1], p & 1) for p in cycle)
        for cycle in point_cycles
    ]

    # graph: one vertex per curve, plus one isolated vertex per
    # alternating split component
    na_components = {
        diagram.component_of[diagram.arc_ends[arc][0] >> 2] for arc in na_arcs
    }
    n_vertices = len(curves) + diagram.split_components - len(na_components)

    edges = []
    for i, arc in enumerate(na_arcs):
        cu, cv = curve_of[2 * i], curve_of[2 * i + 1]
        if cu == cv:
            raise TuraevError(f"non-alternating arc {arc} met a single curve")
        edges.append((cu, cv))
    # edge i is the arc of marked points 2i and 2i + 1
    rotations = [tuple(p >> 1 for p in cycle) for cycle in point_cycles]
    rotations += [()] * (n_vertices - len(curves))

    graph = AdGraph(n_vertices, tuple(edges), rotations=tuple(rotations))
    graph = adgraph.validate_adg(graph)

    region, count = components(diagram.crossing_count, (
        (h1 >> 2, h2 >> 2)
        for arc, (h1, h2) in diagram.arc_ends.items()
        if kinds[arc].alternating
    ))
    touched: list[set[int]] = [set() for _ in range(count)]
    for i, arc in enumerate(na_arcs):
        for end, h in enumerate(diagram.arc_ends[arc]):
            touched[region[h >> 2]].add(curve_of[2 * i + end])

    return Decomposition(
        curves=tuple(curves),
        graph=graph,
        edge_arcs=tuple(na_arcs),
        signs=tuple(kinds[arc].sign for arc in na_arcs),
        region_curves=tuple(sorted(tuple(sorted(cs)) for cs in touched)),
    )


def twisted_genus(diagram: PlanarDiagram) -> int:
    """Genus of the all-twisted ribbon graph of the induced sphere
    embedding; equals the Turaev genus of the diagram."""
    dec = decompose(diagram)
    return ribbon_genus(adgraph.to_ribbon(dec.graph, twisted=True))
