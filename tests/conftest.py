import numpy as np
import pytest

from circrel import (
    CirculationPlan,
    ExponentialLegModel,
    Leg,
    LegSamples,
    Scenario,
)

REFERENCE_DELAY_RATE = 0.05
REFERENCE_SERVICE_RATE = 0.02


def reference_scenario(t: float, k: int = 5) -> Scenario:
    """k identical exponential legs with the worked-example rates."""
    return Scenario(
        plan=CirculationPlan((float(t),) * k),
        legs=tuple(
            Leg(rates=ExponentialLegModel(REFERENCE_DELAY_RATE, REFERENCE_SERVICE_RATE))
            for _ in range(k)
        ),
    )


def mp_exponential_kernels(a: float, b: float, t: float, dps: int = 30):
    """R, S and D of an exponential leg as mpmath numbers, for reference checks.

    By Opitz's theorem exp(A), for A bidiagonal with nodes z on the diagonal
    and ones above it, holds exp[z_i, ..., z_j] at (i, j). With nodes
    -t * (2a, a, 0, b, 2b) in that order, R, S = P(Exp(a) + Exp(2a) + Exp(b)
    <= t) and D (a and b swapped) are the entries over (a, 0, b),
    (2a, a, 0, b) and (a, 0, b, 2b), times their stage values. exp(A) is
    entrywise nonnegative, so mpmath's squaring steps lose no digits.
    """
    import mpmath

    with mpmath.workdps(dps):
        x = [mpmath.mpf(rate) * t for rate in (2 * a, a, 0.0, b, 2 * b)]
        A = mpmath.zeros(5, 5)
        for i, v in enumerate(x):
            A[i, i] = -v
            if i < 4:
                A[i, i + 1] = 1
        E = mpmath.expm(A)
        return (
            x[1] * x[3] * E[1, 3],
            x[0] * x[1] * x[3] * E[0, 3],
            x[1] * x[3] * x[4] * E[1, 4],
        )


def two_point_scenario() -> Scenario:
    """One leg, two-point samples, slack 4: exactly 3 of 4 pairs fit."""
    return Scenario(
        plan=CirculationPlan((4.0,)),
        legs=(Leg(samples=LegSamples((1.0, 3.0), (1.0, 3.0))),),
    )


def random_scenario(rng: np.random.Generator, k: int | None = None) -> Scenario:
    """Random plan with a mix of exponential and sample legs."""
    if k is None:
        k = int(rng.integers(1, 4))
    intervals = []
    legs = []
    for _ in range(k):
        intervals.append(float(rng.uniform(0.0, 40.0)))
        if rng.random() < 0.5:
            nx = int(rng.integers(1, 6))
            ny = int(rng.integers(1, 6))
            legs.append(
                Leg(samples=LegSamples(
                    tuple(rng.uniform(0.0, 30.0, nx)),
                    tuple(rng.uniform(0.0, 30.0, ny)),
                ))
            )
        else:
            legs.append(
                Leg(rates=ExponentialLegModel(
                    float(rng.uniform(0.01, 0.5)),
                    float(rng.uniform(0.01, 0.5)),
                ))
            )
    return Scenario(plan=CirculationPlan(tuple(intervals)), legs=tuple(legs))


def random_sizes(rng: np.random.Generator, k: int) -> tuple[list[int], list[int]]:
    return (
        [int(n) for n in rng.integers(1, 26, k)],
        [int(n) for n in rng.integers(1, 26, k)],
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
