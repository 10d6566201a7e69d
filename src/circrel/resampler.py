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
stream, so the report is byte-identical for a given seed however the
realizations are grouped. The stream algorithm is Philox (numpy), keyed by
the seed with the 256-bit counter starting at l * 2**128; within a
realization the draws are one vectorized uniform-integer draw over the
delay sample sizes, then one over the service sample sizes. This layout is
a compatibility promise.

Realizations are evaluated in vectorized chunks: Philox4x64-10 runs in
numpy over a block of (key, realization) rows and numpy's 32-bit Lemire
bounded draw is applied to its output words, which reproduces the
``realization_stream`` layout bit for bit. A row whose draw hits a Lemire
rejection (or whose sizes exceed 32 bits) is replayed through
``realization_stream`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import MissingSamples, ValidationError
from .plan import Scenario, _check_realizations, validate_scenario

if TYPE_CHECKING:
    import numpy as np

_SEED_BITS = 64
_MASK64 = (1 << 64) - 1
_LOW32 = 0xFFFFFFFF  # a uint64 array & this int stays uint64

# Philox4x64 round multipliers and key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10

# Rows (one realization under one key) evaluated per vectorized chunk.
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class ResamplingConfig:
    """Realization count and the 64-bit seed the whole run derives from."""

    r: int
    seed: int = 0

    def __post_init__(self):
        if self.r >= 2**63:  # realization indices are int64
            raise ValidationError(f"realization count {self.r!r} must be below 2**63")
        _check_realizations(self.r)
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
    import numpy as np

    return np.random.Generator(np.random.Philox(key=seed, counter=index << 128))


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product a * m, from 32-bit halves."""
    import numpy as np

    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LOW32, a >> 32
    lo_lo, lo_hi, hi_lo = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
    carry = (lo_lo >> 32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    hi = a_hi * m_hi + (lo_hi >> 32) + (hi_lo >> 32) + (carry >> 32)
    return hi, a * np.uint64(m)


def _philox_words(keys: np.ndarray, realizations: np.ndarray, blocks: int) -> np.ndarray:
    """The first ``blocks`` Philox4x64-10 output blocks of each row's stream.

    Row j is keyed by (keys[j], 0) and its counter starts at
    realizations[j] * 2**128, so block b is computed at counter
    realizations[j] * 2**128 + b + 1. Returns uint64 words, shape
    (rows, 4 * blocks), in the order the stream emits them.
    """
    import numpy as np

    rows = keys.size
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (rows, blocks))
    c1 = np.zeros((rows, blocks), dtype=np.uint64)
    c2 = np.broadcast_to(realizations[:, None], (rows, blocks))
    c3 = c1
    k0 = keys[:, None]
    for round_ in range(_PHILOX_ROUNDS):
        # Weyl key schedule on an array, or on a Python int masked to 64
        # bits: a scalar uint64 add would warn on its intended wrap.
        key0 = k0 + np.uint64(round_ * _PHILOX_W[0] & _MASK64)
        key1 = np.uint64(round_ * _PHILOX_W[1] & _MASK64)
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(rows, 4 * blocks)


def _draw_indices(
    keys: np.ndarray, realizations: np.ndarray, sizes_x, sizes_y
) -> tuple[np.ndarray, np.ndarray]:
    """Index draws of many realizations, one row per (key, realization) pair.

    Row j equals ``realization_stream(keys[j], realizations[j])``'s
    ``integers(0, sizes_x)`` followed by ``integers(0, sizes_y)``: a size-1
    sample consumes no draw, every other size consumes 32-bit halves of the
    stream's words, low half first, through Lemire's bounded draw with
    threshold (2**32 - n) % n. Rows that hit a rejection are replayed.
    """
    import numpy as np

    sizes = [int(n) for n in sizes_x] + [int(n) for n in sizes_y]
    k_x = len(sizes_x)
    rows = keys.size
    indices = np.zeros((rows, len(sizes)), dtype=np.int64)
    drawn = [c for c, n in enumerate(sizes) if n > 1]
    if max(sizes) > 2**32:
        replay = np.arange(rows)
    elif drawn:
        n = np.array([sizes[c] for c in drawn], dtype=np.uint64)
        threshold = np.array([(2**32 - sizes[c]) % sizes[c] for c in drawn], dtype=np.uint64)
        words = _philox_words(keys, realizations, -(-len(drawn) // 8))
        halves = np.stack((words & _LOW32, words >> 32), axis=-1).reshape(rows, -1)
        scaled = halves[:, : len(drawn)] * n
        indices[:, drawn] = scaled >> 32
        replay = np.flatnonzero(((scaled & _LOW32) < threshold).any(axis=1))
    else:
        replay = ()
    for j in replay:
        stream = realization_stream(int(keys[j]), int(realizations[j]))
        indices[j, :k_x] = stream.integers(0, sizes_x)
        indices[j, k_x:] = stream.integers(0, sizes_y)
    return indices[:, :k_x], indices[:, k_x:]


def _success_counts(
    seeds: np.ndarray,
    r: int,
    delays: list[np.ndarray],
    services: list[np.ndarray],
    slack: np.ndarray,
) -> np.ndarray:
    """Fit counts over realizations 0..r-1 of each seed's streams.

    ``delays[i]`` and ``services[i]`` hold leg i's samples with one row per
    seed: seed g resamples row g. Returns one success count per seed.
    """
    import numpy as np

    sizes_x = [d.shape[1] for d in delays]
    sizes_y = [s.shape[1] for s in services]
    total = seeds.size * r
    counts = np.zeros(seeds.size, dtype=np.int64)
    for start in range(0, total, _CHUNK_ROWS):
        group, realization = np.divmod(np.arange(start, min(start + _CHUNK_ROWS, total)), r)
        jx, jy = _draw_indices(
            seeds[group], realization.astype(np.uint64), sizes_x, sizes_y
        )
        fit = np.ones(group.size, dtype=bool)
        for i, t in enumerate(slack):
            fit &= delays[i][group, jx[:, i]] + services[i][group, jy[:, i]] <= t
        counts += np.bincount(group[fit], minlength=seeds.size)
    return counts


def resample_estimate(scenario: Scenario, config: ResamplingConfig) -> EstimateReport:
    """Mean of the fit indicator over r independent realizations.

    Every leg must carry samples. Realization l draws from
    ``realization_stream(seed, l)``; realizations are evaluated in
    vectorized chunks that reproduce those streams exactly, so the report
    depends on (scenario, config) alone.
    """
    import numpy as np

    validate_scenario(scenario)
    for i, leg in enumerate(scenario.legs):
        if leg.samples is None:
            raise MissingSamples(i)
    success_count = int(_success_counts(
        np.array([config.seed], dtype=np.uint64),
        config.r,
        [np.asarray(leg.samples.delays)[None, :] for leg in scenario.legs],
        [np.asarray(leg.samples.services)[None, :] for leg in scenario.legs],
        np.asarray(scenario.plan.intervals),
    )[0])
    return EstimateReport(
        theta_star=success_count / config.r,
        r=config.r,
        seed=config.seed,
        success_count=success_count,
    )
