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

All types are immutable named tuples: they compare and hash by field,
and ``_replace`` and ``_asdict`` copy and serialize them. The package
imports no data-class module: importing it and building frozen data
classes were the largest share of a CLI call's start-up.

Each input rule is written once, here, in the helpers below, counts and
seeds too (``_check_count``, ``_check_seed``), and each message starts
with a noun the caller passes. ``validate_scenario`` applies them to a
whole scenario and every other public entry point to the values it takes
directly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Sequence

from .errors import ValidationError


class CirculationPlan(namedtuple("CirculationPlan", "intervals")):
    """Slack times t_1..t_k, one per serviced turnaround."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.intervals)


class LegSamples(namedtuple("LegSamples", "delays services")):
    """Observed delay and service-time populations for one leg."""

    __slots__ = ()

    @property
    def n_delays(self) -> int:
        return len(self.delays)

    @property
    def n_services(self) -> int:
        return len(self.services)


class ExponentialLegModel(namedtuple("ExponentialLegModel", "delay_rate service_rate")):
    """Exponential delay and service laws for one leg, given by their rates."""

    __slots__ = ()


class Leg(namedtuple("Leg", "samples rates", defaults=(None, None))):
    """Per-leg model knowledge: samples, exponential rates, or both."""

    __slots__ = ()


class Scenario(namedtuple("Scenario", "plan legs")):
    """A plan bound to the per-leg models operations draw on."""

    __slots__ = ()


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


def _check_count(n: int, noun: str, least: int = 1) -> int:
    """n as an int: a count must be at least ``least``, finite and whole."""
    fault = (f">= {least}" if n < least else "finite" if not _finite(n)
             else "a whole number" if n % 1 else None)
    if fault:
        raise ValidationError(f"{noun} {n!r} must be {fault}")
    return int(n)


def _check_seed(seed: int) -> int:
    """seed as an int: a seed must be a whole number in [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed {seed!r} must fit in 64 bits")
    return _check_count(seed, "seed", least=0)


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
