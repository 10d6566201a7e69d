"""Circulation plan model.

A plan is the vector of slack times between the scheduled arrival of each
flight and the next departure. Leg i completes on time when its arrival
delay plus its turnaround service time fits inside slack t_i; the plan
succeeds when every leg does. Legs are mutually independent, so the plan
reliability is the product of per-leg reliabilities.

Per-leg knowledge comes in two forms, and a leg may carry both:

* observed samples of delays and service times (small samples are the
  expected case), or
* exponential rates for the delay and service distributions.

All types are plain immutable carriers. Each input rule is written once,
here, in the helpers below, whose message starts with a noun the caller
passes. ``validate_scenario`` applies them to a whole scenario and every
other public entry point to the values it takes directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError


@dataclass(frozen=True)
class CirculationPlan:
    """Slack times t_1..t_k, one per serviced turnaround."""

    intervals: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class LegSamples:
    """Observed delay and service-time populations for one leg."""

    delays: tuple[float, ...]
    services: tuple[float, ...]

    @property
    def n_delays(self) -> int:
        return len(self.delays)

    @property
    def n_services(self) -> int:
        return len(self.services)


@dataclass(frozen=True)
class ExponentialLegModel:
    """Exponential delay and service laws for one leg, given by their rates."""

    delay_rate: float
    service_rate: float


@dataclass(frozen=True)
class Leg:
    """Per-leg model knowledge: samples, exponential rates, or both."""

    samples: LegSamples | None = None
    rates: ExponentialLegModel | None = None


@dataclass(frozen=True)
class Scenario:
    """A plan bound to the per-leg models operations draw on."""

    plan: CirculationPlan
    legs: tuple[Leg, ...]


def _finite(x: float) -> bool:
    """Whether x is finite; a number float() cannot hold, such as 10**400, is not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _check_slack(t: float, noun: str = "slack time", leg: int | None = None) -> None:
    if not _finite(t) or t < 0:
        raise ValidationError(f"{noun} {t!r}", leg=leg)


def _check_rate(rate: float, noun: str = "rate", leg: int | None = None) -> None:
    if not _finite(rate) or rate <= 0:
        raise ValidationError(f"{noun} {rate!r}", leg=leg)


def _check_samples(samples: LegSamples, leg: int | None = None) -> None:
    for kind, values in (("delay", samples.delays), ("service", samples.services)):
        if len(values) == 0:
            raise ValidationError(f"empty {kind} sample", leg=leg)
        for v in values:
            if not _finite(v) or v < 0:
                raise ValidationError(f"{kind} sample value {v!r}", leg=leg)


def _whole_sizes(sizes: Sequence[int], leg: int | None = None) -> tuple[int, ...]:
    """sizes as ints, each a whole number >= 1, as NaN, inf and 10**400 are not."""
    fault = (">= 1" if any(n < 1 for n in sizes)
             else "integers" if any(not _finite(n) or n % 1 for n in sizes) else None)
    if fault:
        raise ValidationError(f"sample sizes ({', '.join(map(str, sizes))}) must be {fault}",
                              leg=leg)
    return tuple(int(n) for n in sizes)


def _leg_sizes(sizes_x: Sequence[int], sizes_y: Sequence[int],
               k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One whole delay and service sample size >= 1 per leg, as ints."""
    if len(sizes_x) != k or len(sizes_y) != k:
        raise ValidationError(
            f"expected {k} sizes per family, got {len(sizes_x)} and {len(sizes_y)}")
    pairs = [_whole_sizes(pair, leg=i) for i, pair in enumerate(zip(sizes_x, sizes_y))]
    return tuple(nx for nx, _ in pairs), tuple(ny for _, ny in pairs)


def _check_realizations(r: int) -> None:
    if r < 1:
        raise ValidationError(f"realization count {r!r} must be >= 1")
    if not _finite(r):
        raise ValidationError(f"realization count {r!r} must be finite")


def validate_scenario(raw: Scenario) -> Scenario:
    """Check every invariant; return the scenario unchanged if all hold.

    Raises ValidationError at the first that fails, with the offending leg,
    if any, in ``leg``.
    """
    plan = raw.plan
    if plan.k == 0:
        raise ValidationError("plan has no legs")
    for i, t in enumerate(plan.intervals):
        _check_slack(t, "interval", i)
    if len(raw.legs) != plan.k:
        raise ValidationError(
            f"plan has {plan.k} legs but {len(raw.legs)} leg models supplied"
        )
    for i, leg in enumerate(raw.legs):
        if leg.samples is None and leg.rates is None:
            raise ValidationError("leg carries neither samples nor rates", leg=i)
        if leg.samples is not None:
            _check_samples(leg.samples, i)
        if leg.rates is not None:
            _check_rate(leg.rates.delay_rate, "delay rate", i)
            _check_rate(leg.rates.service_rate, "service rate", i)
    return raw


def plan_reliability(per_leg: Sequence[float]) -> float:
    """Product of per-leg reliabilities; the plan-level success probability."""
    product = 1.0
    for i, p in enumerate(per_leg):
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"leg reliability {p!r}", leg=i)
        product *= p
    return product
