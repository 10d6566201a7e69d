"""Exception hierarchy.

Every input fault raises ValidationError, or ParseError for a file that
cannot be read as a scenario or samples CSV (CLI exit code 2); the message
says which check failed. MissingSamples reports absent data (exit 3),
NumericError a computation that failed (exit 4). QuadratureNonConvergence
carries the quadrature's last estimate, and EnumerationTooLarge and
NegativeVariance name outcomes a caller may want to tell apart. Errors tied
to a particular leg carry its 0-based index in ``leg``; their messages
number legs from 1, as scenario files and samples CSVs do.
"""

from __future__ import annotations


class CircrelError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CircrelError, ValueError):
    """Input violates a contract (bad value, wrong shape, wrong model kind)."""

    def __init__(self, message: str, leg: int | None = None):
        super().__init__(message if leg is None else f"leg {leg + 1}: {message}")
        self.leg = leg


class EnumerationTooLarge(ValidationError):
    """Requested exhaustive enumeration exceeds the instance-size guard."""


class MissingSamples(CircrelError):
    """An operation needs per-leg samples that the scenario does not carry."""

    def __init__(self, leg: int):
        super().__init__(f"leg {leg + 1}: no samples available")
        self.leg = leg


class ParseError(CircrelError):
    """A scenario or sample file could not be parsed; names the location."""


class NumericError(CircrelError):
    """A numerical procedure failed to meet its accuracy contract."""


class QuadratureNonConvergence(NumericError):
    """Adaptive quadrature exhausted its evaluation budget.

    ``value`` is the best estimate, ``achieved_error`` the error estimate at
    the point the budget ran out, ``evaluations`` the evaluations spent.
    """

    def __init__(self, value: float, achieved_error: float, evaluations: int):
        super().__init__(
            f"quadrature budget exhausted after {evaluations} evaluations; "
            f"achieved error estimate {achieved_error:.3e}"
        )
        self.value = value
        self.achieved_error = achieved_error
        self.evaluations = evaluations


class NegativeVariance(NumericError):
    """Variance formula produced a negative value beyond rounding tolerance."""
