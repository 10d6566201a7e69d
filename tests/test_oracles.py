import numpy as np
import pytest

from circrel import (
    CirculationPlan,
    EnumerationTooLarge,
    ExponentialLegModel,
    Leg,
    LegSamples,
    ResamplingConfig,
    Scenario,
    ValidationError,
    enumerate_exact,
    plan_reliability,
    leg_reliability_plugin,
    realization_stream,
    simulate_pipeline_variance,
    variance_pipeline,
)
from circrel.oracles import _REPLICATION_BLOCK
from tests.conftest import reference_scenario, two_point_scenario


class TestEnumerateExact:
    def test_bernoulli_over_four_index_pairs(self):
        result = enumerate_exact(two_point_scenario(), ResamplingConfig(r=1))
        assert result.expected_theta_star == pytest.approx(0.75, abs=1e-15)
        assert result.exact_variance == pytest.approx(0.1875, abs=1e-15)
        assert result.term_count == 4

    def test_two_realizations_halve_variance(self):
        result = enumerate_exact(two_point_scenario(), ResamplingConfig(r=2))
        assert result.exact_variance == pytest.approx(0.09375, abs=1e-15)
        assert result.term_count == 16

    def test_degenerate_all_success(self):
        scenario = Scenario(
            plan=CirculationPlan((9.0,)),
            legs=(Leg(samples=LegSamples((1.0, 2.0), (3.0, 4.0))),),
        )
        result = enumerate_exact(scenario, ResamplingConfig(r=3))
        assert result.expected_theta_star == 1.0
        assert result.exact_variance == 0.0

    def test_fixed_mode_mean_is_plugin_product(self):
        scenario = Scenario(
            plan=CirculationPlan((4.0, 5.0)),
            legs=(
                Leg(samples=LegSamples((1.0, 3.0), (1.0, 3.0))),
                Leg(samples=LegSamples((2.0, 4.0, 0.0), (1.0, 6.0))),
            ),
        )
        expected = plan_reliability([
            leg_reliability_plugin(leg.samples, t)
            for leg, t in zip(scenario.legs, scenario.plan.intervals)
        ])
        for r in (1, 2, 3):
            result = enumerate_exact(scenario, ResamplingConfig(r=r))
            assert result.expected_theta_star == pytest.approx(expected, abs=1e-13)

    def test_random_samples_match_analytic_variance(self):
        scenario = Scenario(
            plan=CirculationPlan((4.0, 5.0)),
            legs=(
                Leg(samples=LegSamples((1.0, 3.0), (1.0, 3.0))),
                Leg(samples=LegSamples((2.0, 4.0, 0.0), (1.0, 6.0))),
            ),
        )
        for r in (1, 2, 3):
            oracle = enumerate_exact(scenario, ResamplingConfig(r=r), samples_random=True)
            analytic = variance_pipeline(scenario, r=r, mode="plugin")
            assert oracle.exact_variance == pytest.approx(analytic.variance, abs=1e-12)
            assert oracle.expected_theta_star == pytest.approx(analytic.theta, abs=1e-12)

    def test_needs_samples(self):
        with pytest.raises(ValidationError):
            enumerate_exact(reference_scenario(140.0), ResamplingConfig(r=1))

    def test_size_guard(self):
        scenario = Scenario(
            plan=CirculationPlan((4.0,)),
            legs=(Leg(samples=LegSamples(tuple(range(12)), tuple(range(12)))),),
        )
        with pytest.raises(EnumerationTooLarge):
            enumerate_exact(scenario, ResamplingConfig(r=5), samples_random=True)


def _replayed_estimates(scenario, sizes_x, sizes_y, r, replications, seed):
    # One replication at a time: its own stream, then the exponential
    # samples leg by leg, then the resampling seed, then r realizations
    # each drawn from its own stream under that seed.
    estimates = []
    for b in range(replications):
        stream = realization_stream(seed, b)
        samples = [
            (stream.exponential(1.0 / leg.rates.delay_rate, size=sizes_x[i]),
             stream.exponential(1.0 / leg.rates.service_rate, size=sizes_y[i]))
            for i, leg in enumerate(scenario.legs)
        ]
        rep_seed = int(stream.integers(0, 2**64, dtype=np.uint64))
        count = 0
        for l in range(r):
            draws = realization_stream(rep_seed, l)
            jx, jy = draws.integers(0, sizes_x), draws.integers(0, sizes_y)
            count += all(
                delays[jx[i]] + services[jy[i]] <= t
                for i, ((delays, services), t) in enumerate(
                    zip(samples, scenario.plan.intervals)
                )
            )
        estimates.append(count / r)
    return np.array(estimates)


class TestSimulatePipelineVariance:
    @pytest.mark.parametrize("r, replications", [
        (1, 64), (10, 64), (37, 64), (3, _REPLICATION_BLOCK + 5),
    ])
    def test_matches_replayed_replications(self, r, replications):
        scenario = Scenario(
            plan=CirculationPlan((60.0, 140.0)),
            legs=(
                Leg(rates=ExponentialLegModel(0.05, 0.02)),
                Leg(rates=ExponentialLegModel(0.03, 0.04)),
            ),
        )
        sizes_x, sizes_y = [1, 4], [3, 1]
        seed = 2**63 + 1
        estimates = _replayed_estimates(scenario, sizes_x, sizes_y, r, replications, seed)
        mc = simulate_pipeline_variance(scenario, sizes_x, sizes_y, r, replications, seed)
        assert 0.0 < estimates.mean() < 1.0
        assert mc.mean_theta_star == float(estimates.mean())
        assert mc.empirical_variance == float(estimates.var(ddof=1))

    def test_deterministic_given_seed(self):
        scenario = reference_scenario(140.0, k=1)
        a = simulate_pipeline_variance(scenario, [4], [4], r=5, replications=1000, seed=3)
        b = simulate_pipeline_variance(scenario, [4], [4], r=5, replications=1000, seed=3)
        assert a == b
        assert a.replications == 1000

    def test_tracks_analytic_variance(self):
        scenario = reference_scenario(140.0, k=1)
        analytic = variance_pipeline(
            scenario, r=5, mode="closed_form", sizes_x=[4], sizes_y=[4]
        )
        mc = simulate_pipeline_variance(scenario, [4], [4], r=5, replications=4000, seed=11)
        spread = abs(mc.empirical_variance - analytic.variance)
        assert spread < 3 * mc.standard_error_of_variance
        se_mean = (mc.empirical_variance / mc.replications) ** 0.5
        assert abs(mc.mean_theta_star - analytic.theta) < 4 * se_mean

    def test_needs_rates(self):
        with pytest.raises(ValidationError):
            simulate_pipeline_variance(
                two_point_scenario(), [2], [2], r=3, replications=100, seed=0
            )

    def test_rejects_non_integral_sizes(self):
        with pytest.raises(ValidationError, match="must be integers"):
            simulate_pipeline_variance(
                reference_scenario(140.0, k=1), [2.5], [2.5], r=3, replications=100, seed=0
            )
        whole = simulate_pipeline_variance(
            reference_scenario(140.0, k=1), [2.0], [2.0], r=3, replications=100, seed=0
        )
        assert whole == simulate_pipeline_variance(
            reference_scenario(140.0, k=1), [2], [2], r=3, replications=100, seed=0
        )

    def test_needs_two_replications(self):
        with pytest.raises(ValidationError):
            simulate_pipeline_variance(
                reference_scenario(140.0, k=1), [4], [4], r=3, replications=1, seed=0
            )

    def test_counts_and_seed_are_whole_numbers(self):
        # Whole floats run as the ints they equal; a count the resampler's
        # int64 realization indices cannot hold is bad input, as it is for
        # ResamplingConfig.
        scenario = reference_scenario(140.0, k=1)
        whole = simulate_pipeline_variance(scenario, [4], [4], r=3.0, replications=100.0,
                                           seed=5.0)
        assert whole == simulate_pipeline_variance(scenario, [4], [4], r=3, replications=100,
                                                   seed=5)
        with pytest.raises(ValidationError, match=rf"^realization count {2**63} must be below"):
            simulate_pipeline_variance(scenario, [4], [4], r=2**63, replications=100, seed=0)
