"""Resampling estimator of the plan success probability.

One realization extracts a single element, uniformly and with replacement,
from each leg's delay sample and each leg's service sample, and evaluates
the all-legs-fit indicator on the extracted vectors. The estimate is the
mean indicator over ``r`` realizations. Draws are independent across legs,
across the two sample families, and across realizations, so between any two
realizations the probability that leg i re-extracts the same element of an
n-element sample is exactly 1/n; the variance analytics rely on that.

Reproducibility contract: realization l consumes randomness only from a
counter-keyed stream derived from (seed, l), never from a shared sequential
stream. Realizations may therefore run in any order or in parallel and the
report is byte-identical for a given seed. The stream algorithm is Philox
(numpy), keyed by the seed with the 256-bit counter starting at l * 2**128;
within a realization the draws are one vectorized uniform-integer draw over
the delay sample sizes, then one over the service sample sizes. This layout
is a compatibility promise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingSamples, ValidationError
from .plan import Scenario, validate_scenario

_SEED_BITS = 64


@dataclass(frozen=True)
class ResamplingConfig:
    """Realization count and the 64-bit seed the whole run derives from."""

    r: int
    seed: int = 0

    def __post_init__(self):
        if self.r < 1:
            raise ValidationError(f"realization count {self.r!r} must be >= 1")
        if not 0 <= self.seed < 2**_SEED_BITS:
            raise ValidationError(f"seed {self.seed!r} must fit in 64 bits")


@dataclass(frozen=True)
class EstimateReport:
    """Resampling estimate and the inputs needed to reproduce it."""

    theta_star: float
    r: int
    seed: int
    success_count: int


def realization_stream(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one realization (or replication) index."""
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 128))


def resample_estimate(scenario: Scenario, config: ResamplingConfig) -> EstimateReport:
    """Mean of the fit indicator over r independent realizations.

    Every leg must carry samples. Realizations run one after another, each
    drawing from its own ``realization_stream``; the report depends on
    (scenario, config) alone.
    """
    validate_scenario(scenario)
    for i, leg in enumerate(scenario.legs):
        if leg.samples is None:
            raise MissingSamples(i)
    delays = [np.asarray(leg.samples.delays) for leg in scenario.legs]
    services = [np.asarray(leg.samples.services) for leg in scenario.legs]
    sizes_x = np.array([d.size for d in delays])
    sizes_y = np.array([s.size for s in services])
    slack = np.asarray(scenario.plan.intervals)
    seed = config.seed

    def run(realization: int) -> int:
        stream = realization_stream(seed, realization)
        jx = stream.integers(0, sizes_x)
        jy = stream.integers(0, sizes_y)
        for i in range(slack.size):
            if delays[i][jx[i]] + services[i][jy[i]] > slack[i]:
                return 0
        return 1

    success_count = sum(run(l) for l in range(config.r))

    return EstimateReport(
        theta_star=success_count / config.r,
        r=config.r,
        seed=seed,
        success_count=success_count,
    )
