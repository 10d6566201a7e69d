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
  the exponential laws of an ``ExponentialLegModel``, the same argument
  ``leg_reliability_exponential`` takes: the independent cross-check for
  the evaluator. Its ``_quadrature_kernel`` integrates the one-sided
  kernels of quadrature mode as well;
* ``leg_reliability_plugin`` -- the empirical plug-in, an exact count over
  all sample pairs.

Sample legs use one fit rule everywhere: a delay/service pair fits when the
floating-point sum satisfies x + y <= t, the resampler's own test, so a tie
x + y = t fits. ``_fit_counts`` is the only place it is written; every
sample-leg kernel is a ratio of the integer counts it returns, for one slack
or a whole grid of slacks in one pass over the sorted services.

Supports are nonnegative throughout: F(u) = G(u) = 0 for u < 0, so every
integral truncates to [0, t].
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Sequence

from .errors import ValidationError
from .plan import ExponentialLegModel, LegSamples
from .quadrature import adaptive_quadrature

# Stage values rate * t are capped here. A stage this fast moves the CDF by
# less than 1e-26 relative, while an uncapped one can overflow the node
# products and differences (inf - inf is nan).
_FASTEST_STAGE = 1e30

# A quadrature kernel's panels end where rate * x reaches this value: there
# e**-_SPAN (about 4e-44) is all that an exponential law has left to change.
_SPAN = 100.0

# Entries (i, j) of a Newton table over m + 1 nodes, one order at a time.
_NEWTON_STEPS = {
    m: tuple((i, i + order) for order in range(1, m + 1) for i in range(m + 1 - order))
    for m in (1, 2, 3)
}


def _require_nonnegative_time(t: float) -> None:
    if t < 0 or not math.isfinite(t):
        raise ValidationError(f"slack time {t!r}")


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


def _exponential_cdf(rate: float, u):
    """CDF of Exp(rate) at each point of the array u; 0 below the origin."""
    import numpy as np

    return -np.expm1(-rate * np.maximum(u, 0.0))


def stieltjes_expectation(f, rate: float, lo: float, hi: float) -> float:
    """integral over [lo, hi] of f(x) dG(x) for G the law Exp(rate) and a
    vectorized integrand f, by adaptive quadrature of f times its density."""
    import numpy as np

    def integrand(x: np.ndarray) -> np.ndarray:
        return f(x) * rate * np.exp(-rate * x)

    return adaptive_quadrature(integrand, lo, hi).value


def _quadrature_kernel(a: float, b: float, t: float, power: int) -> float:
    """E[F(t - Y)**power] with F the CDF of Exp(a) and Y ~ Exp(b), by
    quadrature, clamped to [0, 1]: R at power 1, a one-sided kernel at 2.

    Beyond _SPAN / b the weight keeps mass e**-_SPAN, far below the
    quadrature's absolute tolerance, so the integral stops there. Left of
    t - _SPAN / a the factor F(t - x) is 1 to the last bit, and right of it
    it falls to 0, so a panel edge goes there: a fast rate on either side
    would otherwise hide the integrand's mass between the first nodes.
    """
    hi, cut = min(t, _SPAN / b), t - _SPAN / a
    edges = (0.0, cut, hi) if 0.0 < cut < hi else (0.0, hi)
    value = sum(stieltjes_expectation(lambda x: _exponential_cdf(a, t - x) ** power, b, lo, up)
                for lo, up in zip(edges, edges[1:]))
    return min(1.0, max(0.0, value))


def leg_reliability_quadrature(leg: ExponentialLegModel, t: float) -> float:
    """P(X + Y <= t) by direct evaluation of the convolution integral.

    X ~ Exp(delay rate) and Y ~ Exp(service rate) independent. Agrees with
    ``leg_reliability_exponential`` to the quadrature tolerance.
    """
    _require_nonnegative_time(t)
    a, b = leg.delay_rate, leg.service_rate
    for rate in (a, b):
        if not math.isfinite(rate) or rate <= 0:
            raise ValidationError(f"rate {rate!r}")
    return _quadrature_kernel(a, b, t, 1)


def _fit_counts(delays, services, ts: Sequence[float]) -> tuple[list[int], list[int], list[int]]:
    """Per slack t of ts, sum(c), sum(c**2) and sum(d**2), where c_j counts
    the delays x with fl(x + services[j]) <= t and d_i the services y with
    fl(delays[i] + y) <= t.

    The only place the sample-leg fit rule is written. fl(x + y) is monotone
    in x, so c_j over the whole grid is one searchsorted of the sums of the
    sorted delays. It is monotone in y too, so delay i fits exactly the d_i
    smallest services, and sum(d**2) is the sum over m of (2m + 1) c_(m),
    with c_(m) the count for the m-th smallest service. One pass over the
    sorted services keeps only O(len(ts)) accumulators.
    """
    import numpy as np

    for t in ts:
        _require_nonnegative_time(t)
    grid = np.asarray(ts, dtype=float)
    ordered = np.sort(np.asarray(delays, dtype=float))
    total, squares, crossed = np.zeros((3, len(grid)), dtype=np.int64)
    for m, v in enumerate(np.sort(np.asarray(services, dtype=float)).tolist()):
        c = np.searchsorted(ordered + v, grid, side="right")
        total += c
        squares += c * c
        crossed += (2 * m + 1) * c
    return total.tolist(), squares.tolist(), crossed.tolist()


def leg_reliability_plugin(samples: LegSamples, t: float | Sequence[float]) -> float | list[float]:
    """Fraction of delay/service sample cross-pairs with x + y <= t, for one
    slack t or, as a list, for each slack of a sequence."""
    single = isinstance(t, Real)
    counts = _fit_counts(samples.delays, samples.services, (t,) if single else t)[0]
    shares = [count / (samples.n_delays * samples.n_services) for count in counts]
    return shares[0] if single else shares
