"""Exact variance of the resampling estimator.

Write theta for the plan success probability and mu11 for the expectation of
the product of the fit indicator over two distinct realizations. Averaging r
realizations gives

    Var = theta / r + ((r - 1) / r) * mu11 - theta**2,

where the first and second moments of a single realization both equal theta.
Only mu11 feels the extraction scheme: two realizations are coupled exactly
where they re-extract the same sample elements.

Between two realizations, let omega1 be the set of legs whose delay indices
coincide and omega2 the set whose service indices coincide. Conditioned on
that pattern the legs decouple, and the conditional mixed moment is a product
of per-leg kernels h_i:

    both coincide      h = R(t)                 shared delay and service
    neither            h = R(t)**2              fully independent
    service only       h = E[F(t - Y)**2]       shared service draw Y
    delay only         h = E[G(t - X)**2]       shared delay draw X

with F, G the leg's delay and service CDFs and R the leg reliability. Index
coincidence at a leg with an n-element sample has probability 1/n,
independently across legs and families, so the pattern probabilities are
products of 1/n and (1 - 1/n) factors. mu11 is the pattern-probability
weighted sum of the conditional moments; because both factor per leg, the
4**k-term sum regroups into a k-factor product, which is the default method
(``factorized``). The literal sum (``enumerate``) is kept as an audit path.

For exponential legs with delay rate a and service rate b every kernel is
the CDF of a sum of independent exponentials. F**2 is the CDF of the larger
of two Exp(a) draws, which is distributed as Exp(2a) + Exp(a), so

    E[F(t - Y)**2] = P(Exp(a) + Exp(2a) + Exp(b) <= t),

and the delay-only kernel swaps a and b. Closed-form mode evaluates all
three through ``distributions._hypoexponential_cdf``, as divided differences
of exp. The lines b = a, b = 2a and a = 2b, where two of those rates
coincide, are confluent nodes there and need no fallback, so no evaluation
is flagged ``near_singular``. Quadrature mode integrates the exponential
laws directly and stays the independent cross-check.

For sample legs, in plug-in mode and in every mode on legs without rates,
every kernel is a ratio of integer pair counts under the resampler's fit
rule x + y <= t: with c_j the delays that fit service j and d_i the
services that fit delay i,

    R = sum(c) / (n_x n_y),  E[F(t - Y)**2] = sum(c**2) / (n_x**2 n_y),
    E[G(t - X)**2] = sum(d**2) / (n_y**2 n_x),

so ties x + y = t count as fits exactly as they do when resampling.

``leg_kernels`` takes one slack or a grid of slacks, so ``variance_pipeline``
and a sweep both build one table of R, S and D per distinct leg and column
of slacks, and then only the O(k) products for mu11 and theta at each point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Real
from operator import getitem
from typing import Iterable, Iterator, Sequence

from .distributions import (
    _fit_counts,
    _hypoexponential_cdf,
    _quadrature_kernel,
    leg_reliability_exponential,
    leg_reliability_plugin,
    leg_reliability_quadrature,
)
from .errors import EnumerationTooLarge, NegativeVariance, ValidationError
from .plan import (CirculationPlan, Leg, Scenario, _check_realizations, _leg_sizes, _whole_sizes,
                   plan_reliability, validate_scenario)

KERNEL_MODES = ("closed_form", "plugin", "quadrature")  # in the order the CLI lists them
MU11_METHODS = ("factorized", "enumerate")

ENUMERATE_MAX_LEGS = 12
NEGATIVE_VARIANCE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class KernelEvaluation:
    """One kernel value plus how it was obtained.

    ``near_singular`` is kept in the report format; no evaluation path sets
    it now.
    """

    value: float
    method: str
    near_singular: bool = False


@dataclass(frozen=True)
class LegKernels:
    """The four coincidence-case kernels of one leg."""

    both: KernelEvaluation
    neither: KernelEvaluation
    service_only: KernelEvaluation
    delay_only: KernelEvaluation


@dataclass(frozen=True)
class _KernelTable:
    """R, S and D of one leg over a grid of slacks, and how they were evaluated."""

    method: str
    both: Sequence[float]
    service_only: Sequence[float]
    delay_only: Sequence[float]

    def at(self, j: int) -> LegKernels:
        """The four kernels at the j-th slack; neither coincides is R**2."""
        r = self.both[j]
        values = (r, r * r, self.service_only[j], self.delay_only[j])
        return LegKernels(*(KernelEvaluation(v, self.method) for v in values))


@dataclass(frozen=True)
class VarianceReport:
    """Estimator variance with every intermediate needed to audit it."""

    theta: float
    mu11: float
    r: int
    variance: float
    kernel_mode: str | None = None
    method: str | None = None
    per_leg_h: tuple[LegKernels, ...] = ()

    @property
    def mu2(self) -> float:
        return self.theta


def omega_probability(omega: Iterable[int], sizes: Sequence[int]) -> float:
    """Probability that exactly the legs in omega re-extract the same element."""
    members = frozenset(omega)
    k = len(sizes)
    for i in members:
        if not 0 <= i < k:
            raise ValidationError(f"leg index {i} outside 0..{k - 1}")
    return math.prod((1.0 / n if i in members else 1.0 - 1.0 / n
                      for i, n in enumerate(_whole_sizes(sizes))), start=1.0)


def _resolve_mode(leg: Leg, mode: str, index: int | None = None) -> str:
    """The kernel path that runs for the leg, whose errors name it if ``index``
    is given: in every mode, a leg without rates is counted as plug-in counts it."""
    if mode not in KERNEL_MODES:
        raise ValidationError(f"unknown kernel mode {mode!r}")
    resolved = "plugin" if leg.rates is None else mode
    if resolved == "plugin" and leg.samples is None:
        raise ValidationError("plugin kernels need samples", leg=index)
    return resolved


def leg_kernels(leg: Leg, t: float | Sequence[float], mode: str) -> LegKernels | _KernelTable:
    """Evaluate the coincidence-case kernels of one leg at slack t.

    t is one slack, giving its ``LegKernels``, or a sequence of slacks,
    giving one table of R, S and D over all of them. The mode picks how R
    and the two one-sided kernels are evaluated; the neither-coincides
    kernel is always R**2, reported with R's method: the path that ran, so
    ``plugin`` for a leg without rates in any mode.
    """
    resolved = _resolve_mode(leg, mode)
    single = isinstance(t, Real)
    ts = (t,) if single else t
    if resolved == "closed_form":
        a, b = leg.rates.delay_rate, leg.rates.service_rate
        both = [leg_reliability_exponential(leg.rates, u) for u in ts]
        service_only = [_hypoexponential_cdf((a, 2.0 * a, b), u) for u in ts]
        delay_only = [_hypoexponential_cdf((b, 2.0 * b, a), u) for u in ts]
    elif resolved == "quadrature":
        a, b = leg.rates.delay_rate, leg.rates.service_rate
        both = [leg_reliability_quadrature(leg.rates, u) for u in ts]
        service_only = [_quadrature_kernel(a, b, u, 2) for u in ts]
        delay_only = [_quadrature_kernel(b, a, u, 2) for u in ts]
    else:
        # R comes from the public leg_reliability_plugin, where the
        # benchmark's tracing times it; _fit_counts keeps that count, so
        # asking it again for S and D counts nothing.
        nx, ny = leg.samples.n_delays, leg.samples.n_services
        both = leg_reliability_plugin(leg.samples, ts)
        _, c2, d2 = _fit_counts(leg.samples.delays, leg.samples.services, ts)
        service_only = [s / (nx * nx * ny) for s in c2]
        delay_only = [s / (ny * ny * nx) for s in d2]
    table = _KernelTable(resolved, both, service_only, delay_only)
    return table.at(0) if single else table


def _sizes_for(scenario: Scenario, sizes_x: Sequence[int] | None,
               sizes_y: Sequence[int] | None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sizes given, or else each leg's own sample sizes, as checked ints."""
    if sizes_x is None or sizes_y is None:
        for i, leg in enumerate(scenario.legs):
            if leg.samples is None:
                raise ValidationError(
                    "sample sizes required when a leg carries no samples", leg=i
                )
        if sizes_x is None:
            sizes_x = [leg.samples.n_delays for leg in scenario.legs]
        if sizes_y is None:
            sizes_y = [leg.samples.n_services for leg in scenario.legs]
    return _leg_sizes(sizes_x, sizes_y, scenario.plan.k)


def _pattern_weights(sizes: Sequence[int]) -> list[float]:
    """The probability of each coincidence pattern m of one sample family
    (bit i set when leg i re-extracts the same element): the products of
    ``omega_probability``, factor by factor in leg order."""
    weights = [1.0]
    for n in sizes:
        weights = [w * f for f in (1.0 - 1.0 / n, 1.0 / n) for w in weights]
    return weights


def _mu11_enumerated(tables: Sequence[_KernelTable], sizes_x: Sequence[int],
                     sizes_y: Sequence[int]) -> list[float]:
    k = len(tables)
    if k > ENUMERATE_MAX_LEGS:
        raise EnumerationTooLarge(f"{4 ** k} coincidence patterns for k={k}; enumerate needs "
                                  f"k <= {ENUMERATE_MAX_LEGS}")
    p1, p2 = _pattern_weights(sizes_x), _pattern_weights(sizes_y)
    # Both sums are correctly rounded. The pattern weights need not sum to 1
    # in floating point, so the weighted sum is divided by their own sum:
    # each term is at most its weight and rounding is monotone, so mu11
    # cannot exceed 1, and it is exactly 1 when every kernel is.
    total = math.fsum(a * b for a in p1 for b in p2)
    bits = [[m >> i & 1 for i in range(k)] for m in range(1 << k)]
    mu11 = []
    for kernels in zip(*(zip(t.both, t.delay_only, t.service_only) for t in tables)):
        # Each leg's kernel when its delay (bit 0) and service (bit 1) indices
        # coincide or not: neither is R**2, delay only D, service only S, both R.
        values = [(r * r, d, s, r) for r, d, s in kernels]
        # Per delay pattern, the two kernels each leg's service bit chooses from.
        rows = ([(v[b], v[b | 2]) for v, b in zip(values, b1)] for b1 in bits)
        mu11.append(math.fsum(math.prod(map(getitem, row, b2), start=w1 * w2)
                              for row, w1 in zip(rows, p1) for b2, w2 in zip(bits, p2)) / total)
    return mu11


def _mu11(tables: Sequence[_KernelTable], sizes_x: Sequence[int], sizes_y: Sequence[int],
          method: str) -> list[float]:
    """mu11 at each slack of every leg's kernel table, by the chosen method."""
    if method not in MU11_METHODS:
        raise ValidationError(f"unknown mu11 method {method!r}")
    if method == "enumerate":
        return _mu11_enumerated(tables, sizes_x, sizes_y)
    # Each leg's factor is R**2 plus the three coincidence corrections, so
    # it is exactly 1 when R = S = D = 1 and exactly 0 when all three are 0;
    # the four pattern weights need not sum to 1 in floating point.
    factors = []
    for table, nx, ny in zip(tables, sizes_x, sizes_y):
        px, py = 1.0 / nx, 1.0 / ny
        factors.append([r * r + px * (1.0 - py) * (d - r * r) + (1.0 - px) * py * (s - r * r)
                        + px * py * (r - r * r)
                        for r, s, d in zip(table.both, table.service_only, table.delay_only)])
    return [math.prod(column) for column in zip(*factors)]


def _tables(
    scenario: Scenario, columns: Sequence[tuple[float, ...]], mode: str,
    method: str, sizes_x: Sequence[int] | None, sizes_y: Sequence[int] | None,
) -> tuple[list[_KernelTable], list[float]]:
    """Each leg's kernel table over its ascending column of slacks, and mu11
    at each slack. The scenario is validated at each column's first slack,
    the only one validation can reject, and each leg's kernel path before
    any table is built; equal legs over equal columns share one table."""
    sizes_x, sizes_y = _sizes_for(scenario, sizes_x, sizes_y)
    validate_scenario(replace(scenario, plan=CirculationPlan(tuple(c[0] for c in columns))))
    for i, leg in enumerate(scenario.legs):
        _resolve_mode(leg, mode, i)
    keys = list(zip(scenario.legs, columns))
    shared = {key: leg_kernels(*key, mode) for key in dict.fromkeys(keys)}
    tables = [shared[key] for key in keys]
    return tables, _mu11(tables, sizes_x, sizes_y, method)


def _report(
    tables: Sequence[_KernelTable], mu11: float, j: int, r: int, mode: str,
    method: str, per_leg_h: tuple[LegKernels, ...] = (),
) -> VarianceReport:
    """theta and the variance formula at the j-th slack of every table."""
    theta = plan_reliability([table.both[j] for table in tables])
    return VarianceReport(theta, mu11, r, _variance(theta, mu11, r), mode, method, per_leg_h)


def mixed_moment_mu11(
    scenario: Scenario,
    sizes_x: Sequence[int] | None = None,
    sizes_y: Sequence[int] | None = None,
    *,
    mode: str = "closed_form",
    method: str = "factorized",
) -> float:
    """Mixed moment of the fit indicator over two distinct realizations.

    ``factorized`` regroups the pattern sum into one product over legs;
    ``enumerate`` performs the literal 4**k-term sum. The two agree to
    floating rounding and the latter is retained as an audit path.
    """
    return variance_pipeline(scenario, 1, mode=mode, method=method,
                             sizes_x=sizes_x, sizes_y=sizes_y).mu11


def _variance(theta: float, mu11: float, r: int) -> float:
    """The variance formula, checked and clamped as ``estimator_variance`` says."""
    if not 0.0 <= theta <= 1.0:
        raise ValidationError(f"theta {theta!r}")
    if not 0.0 <= mu11 <= 1.0:
        raise ValidationError(f"mu11 {mu11!r}")
    _check_realizations(r)
    variance = theta / r + (r - 1) / r * mu11 - theta * theta
    if variance < 0.0:
        if variance < -NEGATIVE_VARIANCE_TOLERANCE:
            raise NegativeVariance(
                f"variance {variance!r} from theta={theta!r}, mu11={mu11!r}, r={r}"
            )
        variance = 0.0
    return variance


def estimator_variance(theta: float, mu11: float, r: int) -> VarianceReport:
    """Variance of the r-realization resampling estimator.

    Negative results within rounding tolerance clamp to zero; anything more
    negative signals inconsistent inputs and raises NegativeVariance.
    """
    return VarianceReport(theta, mu11, r, _variance(theta, mu11, r))


def variance_pipeline(
    scenario: Scenario,
    r: int,
    *,
    mode: str = "closed_form",
    method: str = "factorized",
    sizes_x: Sequence[int] | None = None,
    sizes_y: Sequence[int] | None = None,
) -> VarianceReport:
    """End-to-end variance: kernels, theta, mu11, then the variance formula."""
    columns = [(t,) for t in scenario.plan.intervals]
    tables, mu11 = _tables(scenario, columns, mode, method, sizes_x, sizes_y)
    return _report(tables, mu11[0], 0, r, mode, method,
                   per_leg_h=tuple(table.at(0) for table in tables))


def _sweep(
    scenario: Scenario, grid: tuple[float, ...], r: int, mode: str,
    method: str, sizes_x: Sequence[int] | None, sizes_y: Sequence[int] | None,
) -> Iterator[tuple[float, VarianceReport]]:
    """(t, report) for each t of an ascending grid, the report bit for bit
    ``variance_pipeline``'s with every leg's slack at t, less ``per_leg_h``.
    Every leg's column is the whole grid, so a point costs only theta, mu11
    and the variance formula."""
    tables, mu11 = _tables(scenario, [grid] * scenario.plan.k, mode, method, sizes_x, sizes_y)
    for j, t in enumerate(grid):
        yield t, _report(tables, mu11[j], j, r, mode, method)
