"""Link diagrams as 4-valent combinatorial maps with over/under data.

A diagram is stored as a PD code: each crossing lists its four incident
arc identifiers counterclockwise, starting at the incoming under-strand.
This carries both the rotation system (the oriented plane embedding)
and the over/under decoration, which is exactly the data the Turaev
genus formula and the alternating decomposition need.

Half-edges are encoded as ``4 * crossing_index + slot``.  Slots 0 and 2
belong to the under-strand, slots 1 and 3 to the over-strand.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    ArcMultiplicityError,
    ArcNotFoundError,
    BadParametersError,
    DisconnectedError,
    EmptyDiagramError,
    MalformedLineError,
    NonPlanarMapError,
    ParityError,
    TooLargeError,
    integer,
    integers,
)
from .perm import components, groups, least_points, orbits

Crossing = tuple[int, int, int, int]

#: Slot pairings for the two smoothings: the A-smoothing joins slots 0-1
#: and 2-3, the B-smoothing joins 0-3 and 1-2.  ``PlanarDiagram.mirror``
#: exchanges the two, so the mirror of a diagram has (s_B, s_A) for its
#: (s_A, s_B).
_SMOOTHINGS = {"A": (1, 0, 3, 2), "B": (3, 2, 1, 0)}

DEFAULT_STATE_LIMIT = 18


def _state_limit() -> int:
    """The crossing cap of the state sum: ``ADG_MAX_STATES``, a positive
    integer, or ``DEFAULT_STATE_LIMIT`` when it is unset."""
    raw = os.environ.get("ADG_MAX_STATES")
    if raw is None:
        return DEFAULT_STATE_LIMIT
    try:
        limit = integer(raw)
    except ValueError:
        limit = 0  # rejected below with the same message
    if limit < 1:
        raise BadParametersError(
            f"ADG_MAX_STATES must be a positive integer, got {raw!r}")
    return limit


class PlanarDiagram:
    """An immutable link diagram on a disjoint union of spheres: exactly
    the crossings of its PD code."""

    __slots__ = (
        "crossings", "arc_ends", "partner", "component_of", "split_components",
    )

    def __init__(self, crossings: Sequence[Crossing]):
        self.crossings: tuple[Crossing, ...] = tuple(map(tuple, crossings))
        for x in self.crossings:
            if len(x) != 4:
                raise MalformedLineError(0, str(x), "crossing needs 4 arcs")
            a, b, c, d = x
            if not type(a) is type(b) is type(c) is type(d) is int:
                raise MalformedLineError(0, str(x), "arc ids must be integers")

        # half-edge h carries arcs[h]; one pass pairs each end with the
        # arc's first end.  An arc used once leaves a -1 in ``partner``;
        # with exactly half as many arcs as half-edges, an arc used three
        # or more times forces another used once.  The counts are taken
        # only to name the first bad arc.
        arcs = [a for x in self.crossings for a in x]
        first: dict[int, int] = {}
        partner = [-1] * len(arcs)
        for h, arc in enumerate(arcs):
            g = first.setdefault(arc, h)
            if g != h:
                partner[g] = h
                partner[h] = g
        if 2 * len(first) != len(arcs) or -1 in partner:
            arc, count = next(
                item for item in Counter(arcs).items() if item[1] != 2)
            raise ArcMultiplicityError(arc, count)
        #: ``partner[h]`` is the other half-edge on the arc at ``h``
        self.partner: list[int] = partner
        self.arc_ends: dict[int, tuple[int, int]] = {
            a: (first[a], partner[first[a]]) for a in sorted(first)
        }
        #: split component label per crossing, and k(D), the number of them
        self.component_of, self.split_components = components(
            len(self.crossings),
            ((h1 >> 2, h2 >> 2) for h1, h2 in self.arc_ends.values()),
        )
        self._check_genus_zero()

    # -- basic structure -----------------------------------------------------

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @property
    def arcs(self) -> tuple[int, ...]:
        return tuple(self.arc_ends)

    def arc_at(self, h: int) -> int:
        return self.crossings[h >> 2][h & 3]

    def face_step(self) -> list[int]:
        """h -> rotate(partner(h)): the next half-edge along a face.

        A face is an orbit: the half-edges at which its boundary
        traversal leaves a crossing.
        """
        return [(p & ~3) | ((p + 1) & 3) for p in self.partner]

    def _check_genus_zero(self) -> None:
        # Euler's formula per split component, each on its own sphere;
        # with E = 2V it reads F - V = 2
        chi = [0] * self.split_components
        for comp in self.component_of:
            chi[comp] -= 1
        for h in least_points(orbits(self.face_step())[0]):
            chi[self.component_of[h >> 2]] += 1
        for comp, value in enumerate(chi):
            if value != 2:
                members = groups(self.component_of, len(chi))[comp]
                raise NonPlanarMapError(
                    f"component {members} fails Euler check: "
                    f"V-E+F = {value} != 2"
                )

    # -- derived invariants ----------------------------------------------------

    def mirror(self) -> "PlanarDiagram":
        """The mirror image: reverse every rotation, keeping each crossing's
        incoming under-strand at slot 0 and its strands over and under.
        Slots 1 and 3 trade places, so the A- and B-smoothings trade too
        and the Kauffman bracket maps A to A^-1."""
        return PlanarDiagram([(a, d, c, b) for (a, b, c, d) in self.crossings])

    def disjoint_union(self, other: "PlanarDiagram") -> "PlanarDiagram":
        shift = max(self.arc_ends, default=0)
        return PlanarDiagram(
            list(self.crossings) + _relabel(other.crossings, shift))

    def __repr__(self) -> str:
        body = " / ".join("X " + " ".join(map(str, x)) for x in self.crossings)
        return f"<PlanarDiagram c={self.crossing_count} [{body}]>"


# -- PD file format ------------------------------------------------------------

def parse_pd(text: str) -> PlanarDiagram:
    """Parse the PD file format.

    One crossing per line, ``X a b c d`` with positive integer arc ids in
    counterclockwise order, slot 0 the incoming under-strand.  Lines
    starting with ``#`` and blank lines are ignored.  Crossings may also
    be separated by ``/`` on a single line.
    """
    crossings: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        for chunk in line.split("/"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split()
            if parts[0] != "X":
                raise MalformedLineError(lineno, chunk, "expected leading 'X'")
            if len(parts) != 5:
                raise MalformedLineError(lineno, chunk, "expected 4 arc ids")
            try:
                arcs = integers(parts[1:])
            except ValueError:
                raise MalformedLineError(lineno, chunk, "arc ids must be integers")
            if min(arcs) <= 0:
                raise MalformedLineError(lineno, chunk, "arc ids must be positive")
            crossings.append(arcs)
    return PlanarDiagram(crossings)


def write_pd(diagram: PlanarDiagram) -> str:
    lines = ["X " + " ".join(map(str, x)) for x in diagram.crossings]
    return "\n".join(lines) + ("\n" if lines else "")


# -- Kauffman states -------------------------------------------------------------

def resolve_state(diagram: PlanarDiagram, choice: Sequence[str]) -> int:
    """Number of circles after smoothing crossing i by ``choice[i]``,
    'A' or 'B'."""
    if len(choice) != diagram.crossing_count:
        raise ValueError("choice must label every crossing")
    pairs = [_SMOOTHINGS[x] for x in choice]
    return _circles(diagram, pairs)[1]


def _circles(
    diagram: PlanarDiagram, pairs: Sequence[Sequence[int]]
) -> tuple[list[int], int]:
    """Circle label per half-edge, and the circle count, of the state
    smoothing crossing ci by the slot pairing ``pairs[ci]``."""
    smooth = [4 * ci + s for ci, pair in enumerate(pairs) for s in pair]
    return orbits(diagram.partner, smooth)


def state_circle_counts(diagram: PlanarDiagram) -> tuple[int, int]:
    """(s_A, s_B) for the all-A and all-B states."""
    n = diagram.crossing_count
    s_a, s_b = (_circles(diagram, [_SMOOTHINGS[x]] * n)[1] for x in "AB")
    return s_a, s_b


def turaev_genus_diagram(diagram: PlanarDiagram) -> int:
    """Genus of the Turaev surface: (2k + c - s_A - s_B) / 2."""
    if diagram.crossing_count == 0:
        return 0
    s_a, s_b = state_circle_counts(diagram)
    val = 2 * diagram.split_components + diagram.crossing_count - s_a - s_b
    if val < 0 or val % 2:
        raise ParityError(
            f"2k + c - sA - sB = {val}; smoothing convention is broken"
        )
    return val // 2


# -- arc alternation ---------------------------------------------------------------

@dataclass(frozen=True)
class ArcKind:
    """Per-arc label: alternating, or non-alternating with a sign.

    The sign is '+' when both endpoints are over-strands, '-' when both
    are under-strands.
    """

    alternating: bool
    sign: str | None = None


#: the kind of an arc by how many of its two ends are over-strands (odd
#: slots): none, one or two; every arc of a kind shares its value
_ARC_KINDS = (ArcKind(False, "-"), ArcKind(True), ArcKind(False, "+"))


def classify_arcs(diagram: PlanarDiagram) -> dict[int, ArcKind]:
    return {arc: _ARC_KINDS[(h1 & 1) + (h2 & 1)]
            for arc, (h1, h2) in diagram.arc_ends.items()}


# -- surgery operations ---------------------------------------------------------------

def _relabel(crossings: Iterable[Crossing], shift: int) -> list[Crossing]:
    return [tuple(a + shift for a in x) for x in crossings]


def connected_sum(
    d1: PlanarDiagram, a1: int, d2: PlanarDiagram, a2: int
) -> PlanarDiagram:
    """Cut arc ``a1`` of ``d1`` and arc ``a2`` of ``d2`` and splice them.

    Exactly one of the two splicings is compatible with the fixed
    rotations (the other would glue the spheres into a torus); the
    planar one is selected by the Euler check.
    """
    if a1 not in d1.arc_ends:
        raise ArcNotFoundError(f"arc {a1} not in first diagram")
    if a2 not in d2.arc_ends:
        raise ArcNotFoundError(f"arc {a2} not in second diagram")
    shift = max(d1.arc_ends, default=0)
    fresh = shift + max(d2.arc_ends, default=0) + 1
    c1 = list(d1.crossings)
    c2 = _relabel(d2.crossings, shift)
    a2s = a2 + shift
    x1, y1 = d1.arc_ends[a1]
    x2, y2 = (h + 4 * len(c1) for h in d2.arc_ends[a2])

    def build(swap: bool) -> PlanarDiagram:
        new = [list(x) for x in c1 + c2]
        pa, pb = (y2, x2) if swap else (x2, y2)
        for h, arc in ((x1, fresh), (pa, fresh), (y1, fresh + 1), (pb, fresh + 1)):
            new[h >> 2][h & 3] = arc
        return PlanarDiagram([tuple(x) for x in new])

    try:
        return build(False)
    except NonPlanarMapError:
        return build(True)


def insert_twist(diagram: PlanarDiagram, arc: int) -> PlanarDiagram:
    """Replace ``arc`` with a one-crossing kink.

    The handedness of the kink is chosen so that the count of
    non-alternating arcs is preserved: the passage adjacent to the lower
    endpoint gets the strand type opposite to that endpoint.  This keeps
    the alternating decomposition graph of the result isomorphic to the
    input's.
    """
    if arc not in diagram.arc_ends:
        raise ArcNotFoundError(f"arc {arc} not in diagram")
    h1, h2 = diagram.arc_ends[arc]
    fresh = max(diagram.arc_ends) + 1
    p_arc, loop_arc, q_arc = fresh, fresh + 1, fresh + 2
    new = [list(x) for x in diagram.crossings]
    new[h1 >> 2][h1 & 3] = p_arc
    new[h2 >> 2][h2 & 3] = q_arc
    h1_under = (h1 & 1) == 0
    if h1_under:
        # first passage over: p on the over-strand of the kink
        kink = (loop_arc, p_arc, q_arc, loop_arc)
    else:
        # first passage under: p enters at slot 0
        kink = (p_arc, loop_arc, loop_arc, q_arc)
    new.append(list(kink))
    return PlanarDiagram([tuple(x) for x in new])


# -- Kauffman bracket and Jones span ---------------------------------------------------

class LaurentPoly:
    """Sparse integer Laurent polynomial in one variable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({exp: coeff})

    @property
    def span(self) -> int:
        if not self.coeffs:
            return 0
        return max(self.coeffs) - min(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = [f"{c}*A^{e}" for e, c in sorted(self.coeffs.items())]
        return " + ".join(terms)


def _strand_orbits(diagram: PlanarDiagram) -> tuple[list[int], int]:
    """Orbits of strand continuation h -> partner(h + 2 mod 4).

    Each link component gives two orbits: its incoming half-edges under
    either orientation.  The orbit holding the component's least
    half-edge has the smaller label; that orientation is the component's
    deterministic first-trace orientation.
    """
    p = diagram.partner
    return orbits([p[h ^ 2] for h in range(len(p))])


def link_component_count(diagram: PlanarDiagram) -> int:
    return _strand_orbits(diagram)[1] // 2


def writhe(diagram: PlanarDiagram) -> int:
    """Writhe under a deterministic orientation of each link component.

    Components are oriented in first-trace order.  The sign convention is
    calibrated so that the normalized bracket of standard table diagrams
    reproduces their Jones polynomial.
    """
    label, _ = _strand_orbits(diagram)
    w = 0
    for ci in range(diagram.crossing_count):
        under_in = 4 * ci + (0 if label[4 * ci] < label[4 * ci + 2] else 2)
        over_in = 4 * ci + (1 if label[4 * ci + 1] < label[4 * ci + 3] else 3)
        # positive when the over-strand enters one slot clockwise of the
        # incoming under-strand
        w += 1 if (over_in - under_in) & 3 == 3 else -1
    return w


def kauffman_bracket(diagram: PlanarDiagram) -> LaurentPoly:
    """Bracket state sum over all 2^c resolutions, delta = -A^2 - A^-2.

    The states are walked in Gray-code order, one crossing flipped at a
    time, with a circle label per half-edge and a size per label; the
    circles are traced in full only once, for the all-A state.

    Slots 0 and 2 of a crossing lie on its two smoothing arcs in either
    smoothing, so their labels tell what a flip does.  A flip is a band
    surgery along the strip between the two arcs.  On different circles
    it merges them.  On one circle C it splits C in two on the sphere:
    the strip meets no circle, so it lies in one of the two discs that C
    bounds (Jordan), and cutting a disc along a band from its boundary to
    its boundary leaves two discs.  Off the sphere C may stay whole;
    that raises ``ParityError``.  A merge relabels the smaller circle; a
    split traces both new circles in step until one closes and relabels
    that one.  A flip so costs O(size of the smaller circle), where a
    recount would trace all 4c half-edges.
    """
    n = diagram.crossing_count
    if n == 0:
        raise EmptyDiagramError("the empty diagram has no Kauffman bracket")
    limit = _state_limit()
    if n > limit:
        raise TooLargeError(f"{n} crossings exceeds state-sum limit {limit}")
    # a circle has at least two of the 4c half-edges: a state has at most
    # 2c circles, so 2c labels never run out
    delta = LaurentPoly({2: -1, -2: -1})
    delta_pows = [LaurentPoly({0: 1})]
    for _ in range(2 * n - 1):
        delta_pows.append(delta_pows[-1] * delta)
    partner = diagram.partner
    smooth = [4 * ci + s for ci in range(n) for s in _SMOOTHINGS["A"]]
    label, circles = orbits(partner, smooth)
    size = [0] * (2 * n)
    for lab in label:
        size[lab] += 1
    free = list(range(circles, 2 * n))
    # the states tallied by (A-smoothings, circles), at a * stride + circles
    stride = 2 * n + 1
    tally = [0] * ((n + 1) * stride)
    key = n * stride + circles
    tally[key] = 1
    for step in range(1, 1 << n):
        ci = (step & -step).bit_length() - 1
        h0 = 4 * ci
        h2 = h0 + 2
        old, other = label[h0], label[h2]
        if old != other:
            # merge: relabel the smaller circle, then flip
            if size[old] > size[other]:
                old, other = other, old
            h = start = h0 if label[h0] == old else h2
            while True:
                label[h] = other
                h = smooth[h]
                label[h] = other
                h = partner[h]
                if h == start:
                    break
            size[other] += size[old]
            free.append(old)
            key -= 1
        # the flip: slots 0 and 2 trade partners, and so do 1 and 3
        smooth[h0], smooth[h2] = smooth[h2], smooth[h0]
        smooth[h0 + 1], smooth[h0 + 3] = smooth[h0 + 3], smooth[h0 + 1]
        if old == other:
            # split: trace from both slots in step until one walk closes
            a, b, length = h0, h2, 0
            while True:
                a = partner[smooth[a]]
                b = partner[smooth[b]]
                length += 2
                if a == h0 or b == h2:
                    break
            if length == size[old]:
                raise ParityError(
                    f"flipping crossing {ci} leaves its circle whole; "
                    "the diagram is not on a sphere")
            new = free.pop()
            h = start = h0 if a == h0 else h2
            while True:
                label[h] = new
                h = smooth[h]
                label[h] = new
                h = partner[h]
                if h == start:
                    break
            size[new] = length
            size[old] -= length
            key += 1
        # the B-smoothing pairs slot 0 with slot 3
        key += -stride if smooth[h0] == h0 + 3 else stride
        tally[key] += 1
    total: dict[int, int] = {}
    for key, count in enumerate(tally):
        if not count:
            continue
        a, circles = divmod(key, stride)
        exp = 2 * a - n
        for e, c in delta_pows[circles - 1].coeffs.items():
            total[e + exp] = total.get(e + exp, 0) + c * count
    return LaurentPoly(total)


def jones_polynomial(diagram: PlanarDiagram) -> LaurentPoly:
    """Writhe-normalized bracket, in the bracket variable A.

    Substituting t = A^-4 gives the Jones polynomial; exponents of the
    returned polynomial are therefore multiples of 4 for knots.
    """
    w = writhe(diagram)
    norm = LaurentPoly.monomial(-3 * w, -1 if w % 2 else 1)
    return kauffman_bracket(diagram) * norm


def require_connected(diagram: PlanarDiagram) -> None:
    """Reject a split diagram, whose bracket span is not defined, before
    any state sum is run."""
    if diagram.split_components > 1:
        raise DisconnectedError("bracket span needs a connected diagram")


def bracket_span(diagram: PlanarDiagram, poly: LaurentPoly | None = None) -> int:
    """Span of the Jones polynomial in the variable t.

    Requires a connected diagram; the span in A is always a multiple
    of 4.  It is read off the ``kauffman_bracket``, which the writhe
    factor only shifts; ``poly`` is the diagram's bracket or its
    ``jones_polynomial``, when the caller already has either.
    """
    require_connected(diagram)
    if diagram.crossing_count == 0:
        return 0
    if poly is None:
        poly = kauffman_bracket(diagram)
    span_a = poly.span
    if span_a % 4:
        raise ParityError(f"bracket span {span_a} not divisible by 4")
    return span_a // 4


# -- adequacy ------------------------------------------------------------------

def is_adequate(diagram: PlanarDiagram) -> bool:
    """True when every single flip away from the all-A and the all-B
    state strictly decreases the circle count.

    On the sphere a flip merges two circles when the crossing's two
    smoothing arcs lie on different circles and splits one otherwise
    (``kauffman_bracket`` says why), so each extreme state is labelled
    once and every crossing compared.
    """
    n = diagram.crossing_count
    if n == 0:
        raise EmptyDiagramError("adequacy needs at least one crossing")
    for pair in _SMOOTHINGS.values():
        label, _ = _circles(diagram, [pair] * n)
        # slot 0 lies on one smoothing arc, slot ``other`` on the second
        other = min(s for s in (1, 2, 3) if s != pair[0])
        if any(label[4 * ci] == label[4 * ci + other] for ci in range(n)):
            return False
    return True
