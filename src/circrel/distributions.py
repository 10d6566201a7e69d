"""Distribution models and per-leg reliability kernels.

A leg completes on time with probability R(t) = P(X + Y <= t) where X is the
arrival delay and Y the service time. With G the service CDF and F the delay
CDF this is the Stieltjes convolution

    R(t) = integral over [0, inf) of F(t - x) dG(x),

which this module evaluates three ways:

* ``leg_reliability_exponential`` -- closed form for exponential X and Y
  (the CDF of a two-stage hypoexponential sum), with an Erlang-2 limit when
  the two rates nearly coincide;
* ``leg_reliability_quadrature`` -- adaptive quadrature of the integral for
  a pair of exponential laws, the independent cross-check for the closed
  forms;
* ``leg_reliability_plugin`` -- the empirical plug-in, an exact count over
  all sample pairs.

Sample legs use one fit rule everywhere: a delay/service pair fits when the
floating-point sum satisfies x + y <= t, the resampler's own test, so a tie
x + y = t fits. ``_pair_fits`` applies it once per pair; every sample-leg
kernel is a ratio of integer counts of its matrix.

Supports are nonnegative throughout: F(u) = G(u) = 0 for u < 0, so every
integral truncates to [0, t].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeTime, NonpositiveRate
from .plan import ExponentialLegModel, LegSamples
from .quadrature import adaptive_quadrature

# Two rates a, b count as coincident when |a - b| <= RATE_TUBE * max(a, b).
# Wide enough to clear catastrophic cancellation in the closed forms, narrow
# enough that limit-form fallbacks stay within 1e-6 of the exact value.
RATE_TUBE = 1e-6


@dataclass(frozen=True)
class Exponential:
    """Exponential law with the given rate (inverse time)."""

    rate: float

    def __post_init__(self):
        if not math.isfinite(self.rate) or self.rate <= 0:
            raise NonpositiveRate(f"rate {self.rate!r}")

    def cdf(self, u):
        u = np.asarray(u, dtype=float)
        out = -np.expm1(-self.rate * np.maximum(u, 0.0))
        return out if out.ndim else float(out)


def rates_nearly_equal(a: float, b: float, tube: float = RATE_TUBE) -> bool:
    """True when a and b fall inside the relative coincidence tube."""
    return abs(a - b) <= tube * max(abs(a), abs(b))


def _require_nonnegative_time(t: float) -> None:
    if t < 0 or not math.isfinite(t):
        raise NegativeTime(f"slack time {t!r}")


def leg_reliability_exponential(leg: ExponentialLegModel, t: float) -> float:
    """Closed-form P(X + Y <= t) for exponential delay and service laws.

    With distinct rates a (delay) and b (service):

        R(t) = 1 - (a e^{-bt} - b e^{-at}) / (a - b),

    the hypoexponential CDF. Inside the rate-coincidence tube the Erlang-2
    limit 1 - (1 + at) e^{-at} is used instead; its deviation from the exact
    value across the tube is below 1e-6.
    """
    _require_nonnegative_time(t)
    a, b = leg.delay_rate, leg.service_rate
    if rates_nearly_equal(a, b):
        value = 1.0 - (1.0 + a * t) * math.exp(-a * t)
    else:
        value = 1.0 - (a * math.exp(-b * t) - b * math.exp(-a * t)) / (a - b)
    return min(1.0, max(0.0, value))


def stieltjes_expectation(f, weight: Exponential, t: float) -> float:
    """integral over [0, t] of f(x) d(weight)(x) for a vectorized integrand f.

    Adaptive quadrature of f times the exponential density of ``weight``.
    """
    rate = weight.rate

    def integrand(x: np.ndarray) -> np.ndarray:
        return f(x) * rate * np.exp(-rate * x)

    return adaptive_quadrature(integrand, 0.0, t).value


def leg_reliability_quadrature(F: Exponential, G: Exponential, t: float) -> float:
    """P(X + Y <= t) by direct evaluation of the convolution integral.

    X ~ F, Y ~ G independent exponential laws. Agrees with the closed form to
    the quadrature tolerance.
    """
    _require_nonnegative_time(t)
    value = stieltjes_expectation(lambda x: F.cdf(t - x), G, t)
    return min(1.0, max(0.0, value))


def _pair_fits(samples: LegSamples, t: float) -> np.ndarray:
    """Boolean pair matrix: entry (i, j) is fl(delay_i + service_j) <= t.

    The only place the sample-leg fit rule is written. Its column sums c_j
    count the delays that fit with service j, its row sums d_i the services
    that fit with delay i.
    """
    _require_nonnegative_time(t)
    x = np.asarray(samples.delays, dtype=float)
    y = np.asarray(samples.services, dtype=float)
    return x[:, None] + y[None, :] <= t


def leg_reliability_plugin(samples: LegSamples, t: float) -> float:
    """Fraction of delay/service sample cross-pairs with x + y <= t."""
    fits = _pair_fits(samples, t)
    return int(np.count_nonzero(fits)) / fits.size
