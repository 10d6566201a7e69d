"""Distribution models and per-leg reliability kernels.

A leg completes on time with probability R(t) = P(X + Y <= t) where X is the
arrival delay and Y the service time. With G the service CDF and F the delay
CDF this is the Stieltjes convolution

    R(t) = integral over [0, inf) of F(t - x) dG(x),

which this module evaluates three ways:

* ``leg_reliability_exponential`` -- exact for exponential X and Y: the CDF
  of a two-stage hypoexponential sum, from ``_hypoexponential_cdf``, the
  divided-difference evaluator that also gives the variance module its
  one-sided kernels;
* ``leg_reliability_quadrature`` -- adaptive quadrature of the integral for
  a pair of exponential laws, the independent cross-check for the
  evaluator;
* ``leg_reliability_plugin`` -- the empirical plug-in, an exact count over
  all sample pairs.

Sample legs use one fit rule everywhere: a delay/service pair fits when the
floating-point sum satisfies x + y <= t, the resampler's own test, so a tie
x + y = t fits. ``_fit_counts`` is the only place it is written; every
sample-leg kernel is a ratio of the integer counts it returns, for one slack
or a whole grid of slacks in one pass.

Supports are nonnegative throughout: F(u) = G(u) = 0 for u < 0, so every
integral truncates to [0, t].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Sequence

from .errors import NegativeTime, NonpositiveRate
from .plan import ExponentialLegModel, LegSamples
from .quadrature import adaptive_quadrature

# Stage values rate * t are capped here. A stage this fast moves the CDF by
# less than 1e-26 relative, while an uncapped one can overflow the node
# products and differences (inf - inf is nan).
_FASTEST_STAGE = 1e30

# Entries (i, j) of a Newton table over m + 1 nodes, one order at a time.
_NEWTON_STEPS = {
    m: tuple((i, i + order) for order in range(1, m + 1) for i in range(m + 1 - order))
    for m in (1, 2, 3)
}


@dataclass(frozen=True)
class Exponential:
    """Exponential law with the given rate (inverse time)."""

    rate: float

    def __post_init__(self):
        if not math.isfinite(self.rate) or self.rate <= 0:
            raise NonpositiveRate(f"rate {self.rate!r}")

    def cdf(self, u):
        import numpy as np

        u = np.asarray(u, dtype=float)
        out = -np.expm1(-self.rate * np.maximum(u, 0.0))
        return out if out.ndim else float(out)


def _require_nonnegative_time(t: float) -> None:
    if t < 0 or not math.isfinite(t):
        raise NegativeTime(f"slack time {t!r}")


def _exp_divided_difference_taylor(x: list[float]) -> float:
    """exp[-x_0, ..., -x_j] for ascending x spanning less than 1, by Taylor series.

    About the lowest node -x_j, exp[-x] = e^{-x_j} * sum_k h_k(w) / (k + j)!,
    where the offsets w_i = x_j - x_i lie in [0, 1) and h_k is the complete
    homogeneous polynomial of degree k (the lowest node's own offset is 0 and
    drops out). Every term is nonnegative and smaller than the one before,
    so the sum stops once a term no longer changes it.
    """
    low = x[-1]
    offsets = [low - v for v in x[:-1]]
    h = [1.0] * len(offsets)  # h[i] = h_k(w_0, ..., w_i), here for k = 0
    k = len(offsets)
    scale = 1.0 / math.factorial(k)
    total = scale
    while True:
        k += 1
        acc = 0.0
        for i, w in enumerate(offsets):
            acc += w * h[i]
            h[i] = acc
        scale /= k
        term = acc * scale
        if total + term == total:
            return math.exp(-low) * total
        total += term


def _hypoexponential_cdf(rates: Sequence[float], t: float) -> float:
    """P(E_1 + ... + E_m <= t) for independent E_i ~ Exp(rates[i]), m <= 3.

    With stage values x_i = rates[i] * t the CDF is (x_1 ... x_m) times the
    divided difference exp[0, -x_1, ..., -x_m] (Opitz, ZAMM 44, 1964;
    McCurdy, Ng and Parlett, Math. Comp. 43, 1984), read off a Newton table
    over the nodes in descending order. An entry whose nodes span 1 or more
    comes from the recurrence, whose subtraction then loses only a few bits;
    a narrower one comes from its Taylor series. Equal or nearly equal rates
    are confluent nodes, not a special case.
    """
    x = [0.0]
    x += sorted([rate * t for rate in rates])
    if x[-1] > _FASTEST_STAGE:
        x = [min(v, _FASTEST_STAGE) for v in x]
    # Built in place: row[i] holds exp[-x_i, ..., -x_j] once (i, j) is done.
    row = [math.exp(-v) for v in x]
    for i, j in _NEWTON_STEPS[len(rates)]:
        span = x[j] - x[i]
        if span >= 1.0:
            row[i] = (row[i] - row[i + 1]) / span
        elif j == i + 1:
            # The two-node series sums to e^{-x_j} * expm1(span) / span.
            row[i] = row[j] * (math.expm1(span) / span if span else 1.0)
        else:
            row[i] = _exp_divided_difference_taylor(x[i : j + 1])
    return min(1.0, max(0.0, math.prod(x[1:]) * row[0]))


def leg_reliability_exponential(leg: ExponentialLegModel, t: float) -> float:
    """P(X + Y <= t) for exponential delay and service laws.

    The CDF of the two-stage hypoexponential sum Exp(a) + Exp(b), with a the
    delay rate and b the service rate; b = a needs no special case.
    """
    _require_nonnegative_time(t)
    return _hypoexponential_cdf((leg.delay_rate, leg.service_rate), t)


def stieltjes_expectation(f, weight: Exponential, t: float) -> float:
    """integral over [0, t] of f(x) d(weight)(x) for a vectorized integrand f.

    Adaptive quadrature of f times the exponential density of ``weight``.
    """
    import numpy as np

    rate = weight.rate

    def integrand(x: np.ndarray) -> np.ndarray:
        return f(x) * rate * np.exp(-rate * x)

    return adaptive_quadrature(integrand, 0.0, t).value


def leg_reliability_quadrature(F: Exponential, G: Exponential, t: float) -> float:
    """P(X + Y <= t) by direct evaluation of the convolution integral.

    X ~ F, Y ~ G independent exponential laws. Agrees with
    ``leg_reliability_exponential`` to the quadrature tolerance.
    """
    _require_nonnegative_time(t)
    value = stieltjes_expectation(lambda x: F.cdf(t - x), G, t)
    return min(1.0, max(0.0, value))


def _fit_counts(first, second, ts: Sequence[float]) -> tuple[list[int], list[int]]:
    """Per slack t of ts, sum(c) and sum(c**2), where c_j counts the values u
    of ``first`` with fl(u + second[j]) <= t.

    The only place the sample-leg fit rule is written. fl(u + v) is monotone
    in u, so c_j over the whole grid is one searchsorted of the sums of the
    sorted ``first``; only O(len(ts)) accumulators are kept.
    """
    import numpy as np

    for t in ts:
        _require_nonnegative_time(t)
    grid = np.asarray(ts, dtype=float)
    ordered = np.sort(np.asarray(first, dtype=float))
    total, squares = np.zeros((2, len(grid)), dtype=np.int64)
    for v in np.asarray(second, dtype=float).tolist():
        c = np.searchsorted(ordered + v, grid, side="right")
        total += c
        squares += c * c
    return total.tolist(), squares.tolist()


def leg_reliability_plugin(samples: LegSamples, t: float | Sequence[float]) -> float | list[float]:
    """Fraction of delay/service sample cross-pairs with x + y <= t, for one
    slack t or, as a list, for each slack of a sequence."""
    single = isinstance(t, Real)
    counts = _fit_counts(samples.delays, samples.services, (t,) if single else t)[0]
    shares = [count / (samples.n_delays * samples.n_services) for count in counts]
    return shares[0] if single else shares
