import numpy as np
import pytest

from circrel import (
    CirculationPlan,
    Leg,
    LegSamples,
    MissingSamples,
    ResamplingConfig,
    Scenario,
    ValidationError,
    enumerate_exact,
    realization_stream,
    resample_estimate,
)
from tests.conftest import reference_scenario, two_point_scenario


def test_forced_draw_with_singleton_samples():
    stream = realization_stream(3, 0)
    assert stream.integers(0, [1, 1, 1]).tolist() == [0, 0, 0]
    assert stream.integers(0, [1, 1]).tolist() == [0, 0]


def test_indices_in_range():
    sizes_x, sizes_y = [2, 5, 9], [3, 1, 7]
    for l in range(200):
        stream = realization_stream(11, l)
        jx, jy = stream.integers(0, sizes_x), stream.integers(0, sizes_y)
        assert all(0 <= j < n for j, n in zip(jx, sizes_x))
        assert all(0 <= j < n for j, n in zip(jy, sizes_y))


def _replayed_success_count(scenario, config):
    # The documented stream layout, replayed one realization at a time:
    # one draw over the delay sample sizes, then one over the service sizes.
    legs, slack = scenario.legs, scenario.plan.intervals
    sizes_x = [leg.samples.n_delays for leg in legs]
    sizes_y = [leg.samples.n_services for leg in legs]
    count = 0
    for l in range(config.r):
        stream = realization_stream(config.seed, l)
        jx = stream.integers(0, sizes_x)
        jy = stream.integers(0, sizes_y)
        count += all(
            leg.samples.delays[jx[i]] + leg.samples.services[jy[i]] <= slack[i]
            for i, leg in enumerate(legs)
        )
    return count


def test_fresh_streams_reproduce_indices():
    scenario = Scenario(
        plan=CirculationPlan((6.0, 9.0, 5.0)),
        legs=(
            Leg(samples=LegSamples((2.0,), (1.0, 3.0, 4.5, 6.0))),
            Leg(samples=LegSamples((0.5, 4.0, 7.0, 2.0, 5.5), (3.0,))),
            Leg(samples=LegSamples((1.0, 2.5, 4.0), (0.0, 1.5, 3.5, 0.5, 2.0, 4.5))),
        ),
    )
    for seed in (0, 2**63 + 1, 2**64 - 1):
        for r in (1, 7, 1000):
            config = ResamplingConfig(r=r, seed=seed)
            report = resample_estimate(scenario, config)
            assert report.success_count == _replayed_success_count(scenario, config)


def test_coincidence_frequency_matches_inverse_size():
    # Two realizations re-extract the same element of a 20-element sample
    # with probability 1/20; check the production draw scheme against a
    # Monte Carlo frequency.
    n = 20
    pairs = 10000
    hits = 0
    for p in range(pairs):
        first = realization_stream(17, 2 * p).integers(0, [n])
        second = realization_stream(17, 2 * p + 1).integers(0, [n])
        hits += first[0] == second[0]
    freq = hits / pairs
    se = (0.05 * 0.95 / pairs) ** 0.5
    assert abs(freq - 1.0 / n) < 4 * se


def test_all_pairs_fit_gives_one():
    scenario = Scenario(
        plan=CirculationPlan((10.0, 10.0)),
        legs=(
            Leg(samples=LegSamples((1.0, 2.0), (3.0, 4.0))),
            Leg(samples=LegSamples((0.0, 5.0), (2.0, 5.0))),
        ),
    )
    for seed in (0, 1, 12345):
        report = resample_estimate(scenario, ResamplingConfig(r=40, seed=seed))
        assert report.theta_star == 1.0
        assert report.success_count == 40


def test_impossible_leg_gives_zero():
    scenario = Scenario(
        plan=CirculationPlan((10.0, 3.0)),
        legs=(
            Leg(samples=LegSamples((1.0,), (2.0,))),
            Leg(samples=LegSamples((4.0, 9.0), (1.0, 2.0))),
        ),
    )
    report = resample_estimate(scenario, ResamplingConfig(r=25, seed=7))
    assert report.theta_star == 0.0


def test_seed_determinism():
    scenario = two_point_scenario()
    config = ResamplingConfig(r=64, seed=2024)
    baseline = resample_estimate(scenario, config)
    assert resample_estimate(scenario, config) == baseline
    assert baseline.theta_star == baseline.success_count / 64


def test_mean_over_seeds_matches_enumeration():
    scenario = two_point_scenario()
    exact = enumerate_exact(scenario, ResamplingConfig(r=4))
    assert exact.expected_theta_star == pytest.approx(0.75, abs=1e-13)
    seeds = 1500
    r = 4
    total = sum(
        resample_estimate(scenario, ResamplingConfig(r=r, seed=s)).theta_star
        for s in range(seeds)
    )
    se = (0.75 * 0.25 / (seeds * r)) ** 0.5
    assert abs(total / seeds - 0.75) < 4 * se


def test_value_permutation_leaves_law_unchanged():
    # Only the multiset of sample values matters: the exact oracle sees
    # identical distributions for any ordering.
    base = Scenario(
        plan=CirculationPlan((4.0,)),
        legs=(Leg(samples=LegSamples((1.0, 3.0, 2.0), (1.0, 3.0))),),
    )
    permuted = Scenario(
        plan=CirculationPlan((4.0,)),
        legs=(Leg(samples=LegSamples((3.0, 2.0, 1.0), (3.0, 1.0))),),
    )
    config = ResamplingConfig(r=2)
    assert enumerate_exact(base, config) == enumerate_exact(permuted, config)


def test_missing_samples_names_leg():
    with pytest.raises(MissingSamples) as info:
        resample_estimate(reference_scenario(140.0), ResamplingConfig(r=5, seed=1))
    assert info.value.leg == 0


def test_config_validation():
    with pytest.raises(ValidationError):
        ResamplingConfig(r=0)
    with pytest.raises(ValidationError):
        ResamplingConfig(r=5, seed=-1)
    with pytest.raises(ValidationError):
        ResamplingConfig(r=5, seed=2**64)
