"""Exception hierarchy shared by all modules, and the integer readers of
every input format."""

from typing import Sequence


def integer(text: str) -> int:
    """``int(text)`` for ASCII ``-?[0-9]+`` only.  Surrounding space, a
    ``+`` sign, ``_`` separators and non-ASCII digits, which ``int``
    takes, raise ``ValueError`` here, so each reader keeps its message."""
    # the only ASCII characters that isdigit() accepts are 0-9
    if text.isascii() and (
        text.isdigit() or text[:1] == "-" and text[1:].isdigit()
    ):
        return int(text)
    raise ValueError(f"invalid integer {text!r}")


def integers(tokens: Sequence[str]) -> list[int]:
    """``[integer(t) for t in tokens]`` for a whole line.  When the
    tokens are non-empty and their concatenation is ASCII digits, each
    token is ``[0-9]+``, which ``int`` reads just as ``integer`` does, so
    ``map(int)`` reads the line in one call.  Any other line, one with a
    negative or a bad token, is read token by token by ``integer``."""
    joined = "".join(tokens)
    if joined.isascii() and joined.isdigit() and all(tokens):
        return list(map(int, tokens))
    return [integer(t) for t in tokens]


class TuraevError(Exception):
    """Base class for all errors raised by this package."""


# --- diagram errors ---------------------------------------------------------

class MalformedLineError(TuraevError):
    """A PD or graph file line does not match its format."""

    def __init__(self, lineno: int, text: str, reason: str = ""):
        self.lineno = lineno
        self.text = text
        msg = f"line {lineno}: malformed line {text!r}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class NotUtf8Error(TuraevError):
    """An input file is not UTF-8 text."""

    def __init__(self, path: str, offset: int):
        self.path = path
        self.offset = offset
        super().__init__(f"{path}: not UTF-8 text (bad byte at offset {offset})")


class ArcMultiplicityError(TuraevError):
    """An arc identifier is used a number of times different from two."""

    def __init__(self, arc: int, count: int):
        self.arc = arc
        self.count = count
        super().__init__(f"arc {arc} appears {count} times, expected 2")


class NonPlanarMapError(TuraevError):
    """The rotation system fails the genus-zero Euler check."""


class ArcNotFoundError(TuraevError):
    """An operation referenced an arc id absent from the diagram."""


class TooLargeError(TuraevError):
    """The diagram exceeds the configured state-sum crossing limit."""


class DisconnectedError(TuraevError):
    """The operation requires a connected diagram."""


class EmptyDiagramError(TuraevError):
    """The operation needs at least one crossing: the diagram has none, so
    it has no Kauffman bracket and no adequacy."""


# --- ribbon graph errors ----------------------------------------------------

class NonOrientableError(TuraevError):
    """Orientable genus requested for a non-orientable ribbon graph.

    Carries the Euler genus 2k - v + e - f for diagnostics.
    """

    def __init__(self, euler_genus: int):
        self.euler_genus = euler_genus
        super().__init__(
            f"ribbon graph is non-orientable (Euler genus {euler_genus})"
        )


class ParityError(TuraevError):
    """A genus or span formula yielded a value of impossible parity: an
    odd Euler genus of an orientable ribbon graph, an odd number of
    directed boundary walks, a negative or odd 2k + c - s_A - s_B, or a
    bracket span in A that 4 does not divide."""


# --- abstract graph errors --------------------------------------------------

class HasLoopError(TuraevError):
    """A loop edge was supplied where loopless multigraphs are required."""


class OddDegreeError(TuraevError):
    def __init__(self, vertex: int, degree: int):
        self.vertex = vertex
        self.degree = degree
        super().__init__(f"vertex {vertex} has odd degree {degree}")


class NotBipartiteError(TuraevError):
    """Carries one odd cycle as a witness."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"graph contains an odd cycle: {self.cycle}")


class NotPlanarError(TuraevError):
    def __init__(self, component):
        self.component = sorted(component)
        super().__init__(self.describe())

    def describe(self) -> str:
        return f"component {self.component} is not planar"


class NotSphericalError(NotPlanarError):
    """The rotation system does not embed a component in the sphere; the
    component itself may still be planar."""

    def describe(self) -> str:
        return (f"the rotation system does not embed component "
                f"{self.component} in the sphere")


class NotEmbeddedError(TuraevError):
    """The operation requires a graph with a rotation system."""


class BadParametersError(TuraevError):
    """Parameters out of range: a family constructor's, the size of a
    property sweep, or an environment setting."""


class InvalidSiteError(TuraevError):
    """A graph move was requested at a structurally invalid site."""


class ClassificationFailureError(TuraevError):
    """A reduced genus-1 or genus-2 graph matched no known family.

    This would be a counterexample to the classification theorems and
    must abort loudly.
    """


class SignMismatchError(TuraevError):
    """``construct.edge_signs`` found no alternating edge signs: a face of
    the embedding has odd length."""


class BoundsTooLargeError(TuraevError):
    """Census bounds exceed the documented feasibility limits."""
