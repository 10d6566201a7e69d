"""Independent ground-truth generators for the estimator and its variance.

Two tiers, deliberately sharing no kernel code with the analytic variance
module:

* ``enumerate_exact`` -- brute force over every index draw the resampler
  could make (and, optionally, every sample the generative model could have
  produced), combined exactly across legs. Feasible only for tiny instances;
  gives expectations and variances to summation accuracy.
* ``simulate_pipeline_variance`` -- full Monte Carlo over the joint law:
  draw fresh samples from exponential legs, resample them with the
  resampler's own draw routine, and observe the spread of the estimate
  across many replications.

The exact tier checks unbiasedness and the variance formula against fixed
samples (equivalently, against the discrete law the samples define); the
statistical tier checks the analytic variance against the continuous
generative model it describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import EnumerationTooLarge, ValidationError
from .plan import Leg, Scenario, validate_scenario
from .resampler import ResamplingConfig, _success_counts, realization_stream

if TYPE_CHECKING:
    import numpy as np

# Cells = sample configurations x index configurations x realizations,
# summed per leg; beyond this the arrays stop fitting in working memory.
ENUMERATION_CELL_BUDGET = 200_000_000

# Most replications a Monte Carlo run may ask for (an 80 MB array of
# estimates); a larger count is bad input, rejected before allocation.
MAX_REPLICATIONS = 10_000_000

# Replications whose resampling runs share one vectorized call.
_REPLICATION_BLOCK = 128


@dataclass(frozen=True)
class ExactOracleResult:
    """Exact moments of the estimator over the enumerated randomness."""

    expected_theta_star: float
    exact_variance: float
    term_count: int


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical moments of the estimator over fresh-sample replications."""

    mean_theta_star: float
    empirical_variance: float
    replications: int
    standard_error_of_variance: float


def _value_assignments(values: np.ndarray, samples_random: bool) -> np.ndarray:
    """All sample vectors the leg could hold, one per row.

    Fixed mode keeps the observed vector. Random mode redraws every slot
    independently from the discrete law of the observed values (uniform over
    the list, so duplicates weight naturally), enumerating all n**n slot
    assignments.
    """
    import numpy as np

    n = values.size
    if not samples_random:
        return values[None, :]
    return values[np.indices((n,) * n).reshape(n, -1).T]


def _index_combinations(n_x: int, n_y: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """All (n_x * n_y)**r joint index draws as (realization, combo) arrays of
    delay and service indices."""
    import numpy as np

    draws = np.indices((n_x, n_y) * r).reshape(2 * r, -1)
    return draws[0::2], draws[1::2]


def _leg_outcome_distribution(
    leg: Leg, t: float, r: int, samples_random: bool
) -> tuple[np.ndarray, int]:
    """Distribution of the leg's per-realization success bits over {0,1}**r."""
    import numpy as np

    x = np.asarray(leg.samples.delays, dtype=float)
    y = np.asarray(leg.samples.services, dtype=float)
    cx = x.size**x.size if samples_random else 1
    cy = y.size**y.size if samples_random else 1
    cells = cx * cy * (x.size * y.size) ** r
    if cells * r > ENUMERATION_CELL_BUDGET:
        raise EnumerationTooLarge(
            f"{cells * r} enumeration cells for one leg exceeds the budget"
        )
    vx = _value_assignments(x, samples_random)
    vy = _value_assignments(y, samples_random)
    jx, jy = _index_combinations(x.size, y.size, r)
    codes = np.zeros((vx.shape[0], vy.shape[0], jx.shape[1]), dtype=np.int64)
    for l in range(r):
        extracted_x = vx[:, jx[l]]  # (CX, CI)
        extracted_y = vy[:, jy[l]]  # (CY, CI)
        success = extracted_x[:, None, :] + extracted_y[None, :, :] <= t
        codes |= success.astype(np.int64) << l
    counts = np.bincount(codes.ravel(), minlength=1 << r)
    return counts / counts.sum(), cells


def enumerate_exact(
    scenario: Scenario, config: ResamplingConfig, samples_random: bool = False
) -> ExactOracleResult:
    """Exact mean and variance of the estimator by total enumeration.

    With ``samples_random`` False only the index draws are random and the
    observed samples are held fixed. With True the samples themselves are
    redrawn from the discrete law of the observed values, so the result is
    the exact joint-law moment for that law. Legs enumerate independently
    and combine through the distribution of the per-realization AND.
    """
    import numpy as np

    validate_scenario(scenario)
    for i, leg in enumerate(scenario.legs):
        if leg.samples is None:
            raise ValidationError("exact enumeration needs samples", leg=i)
    r = config.r
    joint = None
    term_count = 0
    for leg, t in zip(scenario.legs, scenario.plan.intervals):
        dist, cells = _leg_outcome_distribution(leg, t, r, samples_random)
        term_count += cells
        if joint is None:
            joint = dist
        else:
            combined = np.zeros_like(joint)
            for c1, p1 in enumerate(joint):
                if p1 == 0.0:
                    continue
                for c2, p2 in enumerate(dist):
                    combined[c1 & c2] += p1 * p2
            joint = combined
    successes = np.array([bin(c).count("1") for c in range(1 << r)]) / r
    mean = float(joint @ successes)
    second = float(joint @ successes**2)
    return ExactOracleResult(
        expected_theta_star=mean,
        exact_variance=max(0.0, second - mean * mean),
        term_count=term_count,
    )


def simulate_pipeline_variance(
    scenario: Scenario,
    sizes_x,
    sizes_y,
    r: int,
    replications: int,
    seed: int,
) -> MonteCarloResult:
    """Spread of the estimator over fresh exponential samples plus resampling.

    Each replication draws new samples of the given sizes from the
    scenario's exponential legs, resamples them with ``r`` realizations, and
    records the estimate. Statistical use wants replications in the
    thousands. Fully deterministic in ``seed``: replication b draws from its
    own counter-keyed substream ``realization_stream(seed, b)``, leg by leg
    (delays, then services), then draws its resampling seed from the same
    substream. Its estimate is the one ``resample_estimate`` reports for
    those samples and that seed; the resampling of a block of replications
    runs in one vectorized call, one Philox key per replication.
    """
    import numpy as np

    validate_scenario(scenario)
    k = scenario.plan.k
    for i, leg in enumerate(scenario.legs):
        if leg.rates is None:
            raise ValidationError("simulation needs exponential rates", leg=i)
    if len(sizes_x) != k or len(sizes_y) != k:
        raise ValidationError(f"expected {k} sizes per family")
    if any(n < 1 or n % 1 for n in (*sizes_x, *sizes_y)):
        raise ValidationError("sample sizes must be integers >= 1")
    sizes_x, sizes_y = [int(n) for n in sizes_x], [int(n) for n in sizes_y]
    ResamplingConfig(r=r, seed=seed)  # rejects r < 1 and seeds outside 64 bits
    if replications < 2:
        raise ValidationError("need at least 2 replications for a variance")
    if replications > MAX_REPLICATIONS:
        raise ValidationError(f"{replications} replications exceed the cap of {MAX_REPLICATIONS}")

    slack = np.asarray(scenario.plan.intervals)
    estimates = np.empty(replications)
    for start in range(0, replications, _REPLICATION_BLOCK):
        block = range(start, min(start + _REPLICATION_BLOCK, replications))
        delays = [np.empty((len(block), n)) for n in sizes_x]
        services = [np.empty((len(block), n)) for n in sizes_y]
        seeds = np.empty(len(block), dtype=np.uint64)
        for row, b in enumerate(block):
            stream = realization_stream(seed, b)
            for i, rates in enumerate(leg.rates for leg in scenario.legs):
                delays[i][row] = stream.exponential(1.0 / rates.delay_rate, size=sizes_x[i])
                services[i][row] = stream.exponential(
                    1.0 / rates.service_rate, size=sizes_y[i]
                )
            seeds[row] = stream.integers(0, 2**64, dtype=np.uint64)
        counts = _success_counts(seeds, r, delays, services, slack)
        estimates[block.start : block.stop] = counts / r

    mean = float(estimates.mean())
    variance = float(estimates.var(ddof=1))
    centered = estimates - mean
    m4 = float(np.mean(centered**4))
    b_count = replications
    se_sq = (m4 - (b_count - 3) / (b_count - 1) * variance**2) / b_count
    return MonteCarloResult(
        mean_theta_star=mean,
        empirical_variance=variance,
        replications=replications,
        standard_error_of_variance=math.sqrt(max(0.0, se_sq)),
    )
