"""Exception hierarchy shared by all kontact modules."""

from __future__ import annotations


class KontactError(Exception):
    """Base class for every error raised by this package."""


class DomainError(KontactError):
    """Evaluation left the expression's domain (log of non-positive, 0**negative, 1/0)."""


class UnboundVariable(KontactError):
    """A free variable of the expression has no assignment at the evaluation point."""


class ParseError(KontactError):
    """Malformed expression text; carries position information."""

    def __init__(self, message: str, text: str = "", pos: int = -1):
        self.text = text
        self.pos = pos
        if pos >= 0:
            message = f"{message} (at column {pos + 1}: {text[max(0, pos - 10):pos + 10]!r})"
        super().__init__(message)


class SampleDomainEmpty(KontactError):
    """No sample point satisfying the domain constraints was found within the retry budget."""


class ZeroTestInconclusive(KontactError):
    """A zero test came back neither clearly zero nor clearly nonzero."""


class ChartMismatch(KontactError):
    """Operands live on different charts."""


class ZeroDegree(KontactError):
    """Interior product of a 0-form is undefined."""


class SourceNotRk(KontactError):
    """Prolongation requires a map whose source chart is a parameter space t^1..t^k."""


class SingularSystem(KontactError):
    """The defining linear system has no unique solution over the expression field."""


class StructureDegenerateAtPoint(KontactError):
    """The k-contact conditions fail at a point, kept as the point attribute."""

    def __init__(self, point: dict):
        self.point = dict(point)
        super().__init__(f"defining conditions fail at {self.point}")


class InconsistentSystem(KontactError):
    """The pointwise linear system admits no solution within tolerance."""
