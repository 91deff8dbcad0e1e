"""The alternating decomposition as it was traced before
``decompose.decompose`` walked the face permutation on flat arrays: the
oracle that the whole ``Decomposition`` is checked against.

Each face is walked as a list of half-edges and emits, per traversal of
a non-alternating arc, one row entry for each of the arc's two marked
points; consecutive entries of a row are joined into curves.  The
alternating regions come from a table of face pieces (one central piece
and one outer piece per chord of a face) glued across crossings and
across the middles of non-alternating arcs.  The code below is kept
verbatim, except that the face list, once ``PlanarDiagram.faces()``, is
built here from ``face_step``.
"""

from turaevgenus import adgraph
from turaevgenus.adgraph import AdGraph
from turaevgenus.decompose import Decomposition, MarkedPoint
from turaevgenus.diagram import PlanarDiagram, classify_arcs
from turaevgenus.errors import TuraevError
from turaevgenus.perm import components, cycles


def decompose(diagram: PlanarDiagram) -> Decomposition:
    kinds = classify_arcs(diagram)
    na_arcs = sorted(a for a, k in kinds.items() if not k.alternating)
    na_set = set(na_arcs)

    _, faces = cycles(diagram.face_step())

    # emissions[face] = list of (marked point, traversal position, emission slot)
    emissions: list[list[tuple[MarkedPoint, int, int]]] = []
    for face in faces:
        row = []
        for pos, h in enumerate(face):
            arc = diagram.arc_at(h)
            if arc in na_set:
                ends = diagram.arc_ends[arc]
                near = 0 if ends[0] == h else 1
                row.append((MarkedPoint(arc, near), pos, 0))
                row.append((MarkedPoint(arc, 1 - near), pos, 1))
        emissions.append(row)

    # joins: from the closing emission of one traversal to the opening
    # emission of the next non-alternating traversal around the face;
    # marked point (arc, end) has index 2 * (rank of arc) + end
    point_index = {arc: 2 * i for i, arc in enumerate(na_arcs)}
    succ = [-1] * (2 * len(na_arcs))
    for row in emissions:
        m = len(row)
        for i in range(m):
            mp, pos, slot = row[i]
            mp2, pos2, slot2 = row[(i + 1) % m]
            if pos == pos2 and slot == 0 and slot2 == 1:
                continue  # the gap runs along the arc's own middle
            succ[point_index[mp.arc] + mp.end] = point_index[mp2.arc] + mp2.end
    if -1 in succ:
        raise TuraevError("curve tracing did not close up")

    # curves: cycles of the join successor, in first-encounter order
    curves = [
        tuple(MarkedPoint(na_arcs[i >> 1], i & 1) for i in cycle)
        for cycle in cycles(succ)[1]
    ]
    curve_of = {mp: ci for ci, curve in enumerate(curves) for mp in curve}

    # graph: one vertex per curve, plus one isolated vertex per
    # alternating split component
    na_components = {
        diagram.component_of[diagram.arc_ends[arc][0] >> 2] for arc in na_arcs
    }
    n_vertices = len(curves) + diagram.split_components - len(na_components)

    edges = []
    signs = []
    for arc in na_arcs:
        cu = curve_of[MarkedPoint(arc, 0)]
        cv = curve_of[MarkedPoint(arc, 1)]
        if cu == cv:
            raise TuraevError(f"non-alternating arc {arc} met a single curve")
        edges.append((cu, cv))
        signs.append(kinds[arc].sign)
    edge_of_arc = {arc: i for i, arc in enumerate(na_arcs)}

    rotations = [
        tuple(edge_of_arc[mp.arc] for mp in cycle) for cycle in curves
    ]
    rotations += [()] * (n_vertices - len(curves))

    graph = AdGraph(n_vertices, tuple(edges), rotations=tuple(rotations))
    graph = adgraph.validate_adg(graph)

    region_curves = _alternating_regions(
        diagram, faces, emissions, curve_of, na_set
    )

    return Decomposition(
        curves=tuple(curves),
        graph=graph,
        edge_arcs=tuple(na_arcs),
        signs=tuple(signs),
        region_curves=region_curves,
    )


def _alternating_regions(diagram, faces, emissions, curve_of, na_set):
    """The regions of the sphere complement of the curves that contain
    crossings, each as the sorted curves that bound it.

    The chords of a face cut it into one central piece (bounded by chords
    and arc middles only, hence crossing-free) and one outer piece per
    chord; pieces merge across crossings and, for central pieces, across
    the middles of non-alternating arcs.
    """
    pieces: dict[tuple, int] = {}

    def piece_id(key) -> int:
        return pieces.setdefault(key, len(pieces))

    corner_piece = [0] * len(diagram.partner)  # arrival half-edge -> piece
    curve_touch: list[tuple[int, int]] = []  # (piece, curve)
    face_of_start = [0] * len(diagram.partner)

    for fi, face in enumerate(faces):
        for h in face:
            face_of_start[h] = fi
        row = emissions[fi]
        na_positions = sorted({pos for (_, pos, _) in row})
        if not na_positions:
            pid = piece_id(("whole", fi))
            for h in face:
                corner_piece[diagram.partner[h]] = pid
            continue
        piece_id(("central", fi))
        # the outer piece after non-alternating traversal p holds the
        # corners up to (and excluding) the next non-alternating traversal
        r = len(face)
        for k, p in enumerate(na_positions):
            q = na_positions[(k + 1) % len(na_positions)]
            pid = piece_id(("outer", fi, p))
            pos = p
            while True:
                corner_piece[diagram.partner[face[pos]]] = pid
                pos = (pos + 1) % r
                if pos == q:
                    break
            mp_here = next(mp for (mp, pp, slot) in row if pp == p and slot == 1)
            curve_touch.append((pid, curve_of[mp_here]))

    # glue the four corners around each crossing, and central pieces
    # across the middles of non-alternating arcs
    glue = [
        (corner_piece[4 * ci], corner_piece[4 * ci + s])
        for ci in range(diagram.crossing_count)
        for s in (1, 2, 3)
    ]
    for arc in na_set:
        h1, h2 = diagram.arc_ends[arc]
        glue.append((
            piece_id(("central", face_of_start[h1])),
            piece_id(("central", face_of_start[h2])),
        ))
    region, _ = components(len(pieces), glue)

    crossing_regions: dict[int, set[int]] = {}
    for pid in corner_piece:
        crossing_regions.setdefault(region[pid], set())
    for pid, curve in curve_touch:
        if region[pid] in crossing_regions:
            crossing_regions[region[pid]].add(curve)
    return tuple(sorted(tuple(sorted(cs)) for cs in crossing_regions.values()))
