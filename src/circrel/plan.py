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

All types are plain immutable carriers; ``validate_scenario`` performs the
invariant checks and is the single gate through which scenarios enter the
estimators.
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


def _check_sample_values(values: Sequence[float], leg: int, kind: str) -> None:
    if len(values) == 0:
        raise ValidationError(f"empty {kind} sample", leg=leg)
    for v in values:
        if not math.isfinite(v) or v < 0:
            raise ValidationError(f"{kind} sample value {v!r}", leg=leg)


def validate_scenario(raw: Scenario) -> Scenario:
    """Check every invariant; return the scenario unchanged if all hold.

    Raises ValidationError at the first that fails, with the offending leg,
    if any, in ``leg``.
    """
    plan = raw.plan
    if plan.k == 0:
        raise ValidationError("plan has no legs")
    for i, t in enumerate(plan.intervals):
        if not math.isfinite(t) or t < 0:
            raise ValidationError(f"interval {t!r}", leg=i)
    if len(raw.legs) != plan.k:
        raise ValidationError(
            f"plan has {plan.k} legs but {len(raw.legs)} leg models supplied"
        )
    for i, leg in enumerate(raw.legs):
        if leg.samples is None and leg.rates is None:
            raise ValidationError("leg carries neither samples nor rates", leg=i)
        if leg.samples is not None:
            _check_sample_values(leg.samples.delays, i, "delay")
            _check_sample_values(leg.samples.services, i, "service")
        if leg.rates is not None:
            for name, rate in (
                ("delay", leg.rates.delay_rate),
                ("service", leg.rates.service_rate),
            ):
                if not math.isfinite(rate) or rate <= 0:
                    raise ValidationError(f"{name} rate {rate!r}", leg=i)
    return raw


def plan_reliability(per_leg: Sequence[float]) -> float:
    """Product of per-leg reliabilities; the plan-level success probability."""
    product = 1.0
    for i, p in enumerate(per_leg):
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"leg reliability {p!r}", leg=i)
        product *= p
    return product
