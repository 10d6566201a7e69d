"""Exception hierarchy.

Validation errors report bad inputs (CLI exit code 2), MissingSamples reports
absent data (exit 3), numeric errors report computation failures (exit 4).
Errors tied to a particular leg carry its 0-based index in ``leg``; their
messages number legs from 1, as scenario files and samples CSVs do.
"""

from __future__ import annotations


class CircrelError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CircrelError, ValueError):
    """Input violates a contract (bad value, wrong shape, wrong model kind)."""

    def __init__(self, message: str, leg: int | None = None):
        super().__init__(message if leg is None else f"leg {leg + 1}: {message}")
        self.leg = leg


class EmptyPlan(ValidationError):
    """Plan has no legs."""


class NegativeSlack(ValidationError):
    """A plan interval is negative or not finite."""


class EmptySample(ValidationError):
    """A sample population is empty."""


class InvalidSampleValue(ValidationError):
    """A sample value is negative or not finite."""


class NonpositiveRate(ValidationError):
    """An exponential rate is zero, negative, or not finite."""


class LegCountMismatch(ValidationError):
    """Number of leg models differs from the plan's leg count."""


class LengthMismatch(ValidationError):
    """Vector argument length differs from the plan's leg count."""


class OutOfRangeProbability(ValidationError):
    """A probability argument lies outside [0, 1]."""


class NegativeTime(ValidationError):
    """A slack time argument is negative."""


class IndexOutOfRange(ValidationError):
    """A leg index lies outside {0, ..., k-1}."""


class EnumerationTooLarge(ValidationError):
    """Requested exhaustive enumeration exceeds the instance-size guard."""


class MissingSamples(CircrelError):
    """An operation needs per-leg samples that the scenario does not carry."""

    def __init__(self, leg: int):
        super().__init__(f"leg {leg + 1}: no samples available")
        self.leg = leg


class ParseError(CircrelError):
    """A scenario or sample file could not be parsed; names the location."""


class UnknownKind(ParseError):
    """A sample CSV row carries a kind other than 'delay' or 'service'."""


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
