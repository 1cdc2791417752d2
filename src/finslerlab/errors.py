"""Shared exception types.

Every error carries enough context to name the failing operation and, where
it makes sense, the evaluation point.
"""


class FinslerError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FinslerError):
    """Malformed expression text."""

    def __init__(self, message: str, position: int, expected: str | None = None):
        super().__init__(f"{message} (at position {position})")
        self.position = position
        self.expected = expected


class UnknownIdentifierError(FinslerError):
    """Expression references a name that is neither a declared variable nor a function."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier '{name}' (at position {position})")
        self.name = name
        self.position = position


class DomainError(FinslerError):
    """Evaluation left the mathematical domain.

    Raised for division by a (near-)zero value, log/sqrt of a non-positive
    value, fractional powers of non-positive bases, non-finite intermediate
    results, points outside a declared (r, s) domain, and Randers data
    f, g, h that stops defining a positive metric.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.subexpr: str | None = None


class RegularityError(FinslerError):
    """A positivity condition required of the metric fails at a point."""

    def __init__(self, message: str, point=None, condition: int | None = None):
        super().__init__(message)
        self.point = point
        self.condition = condition


class QuadratureError(FinslerError):
    """An adaptive quadrature failed to reach its tolerance within the node cap."""


class CrossCheckError(FinslerError):
    """Two independent evaluations of the same quantity disagree."""


class DegenerateInputError(FinslerError):
    """Input is degenerate for the requested operation (e.g. an identically zero coefficient)."""


class DomainExitError(FinslerError):
    """A geodesic left the radial domain the metric is defined on."""

    def __init__(self, message: str, t: float | None = None, point=None):
        super().__init__(message)
        self.t = t
        self.point = point


class ConfigError(FinslerError):
    """A run configuration is malformed; the message names the offending key."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key
