import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circrel import (
    CirculationPlan,
    EnumerationTooLarge,
    ExponentialLegModel,
    Leg,
    LegSamples,
    NegativeVariance,
    ResamplingConfig,
    Scenario,
    ValidationError,
    enumerate_exact,
    estimator_variance,
    leg_kernels,
    mixed_moment_mu11,
    omega_probability,
    variance_pipeline,
)
from circrel import distributions
from circrel.variance import KernelEvaluation
from circrel.verify import run_suite
from tests.conftest import (
    REFERENCE_DELAY_RATE,
    REFERENCE_SERVICE_RATE,
    mp_exponential_kernels,
    random_scenario,
    random_sizes,
    reference_scenario,
    two_point_scenario,
)

# Kernel values at rates (0.05, 0.02), t = 140, frozen from the quadrature
# route (relative error <= 1e-9).
H_BOTH = 0.8992578169350064
H_NEITHER = 0.8086646213187134
H_SERVICE_ONLY = 0.8745280042693555
H_DELAY_ONLY = 0.8133574245902094

REFERENCE_LEG = Leg(rates=ExponentialLegModel(0.05, 0.02))


class TestOmegaProbability:
    def test_forced_coincidence(self):
        assert omega_probability({0, 1, 2}, [1, 1, 1]) == 1.0

    def test_forced_coincidence_complement(self):
        assert omega_probability(set(), [1, 1, 1]) == 0.0

    def test_three_leg_pattern(self):
        p = omega_probability({0, 2}, [20, 20, 20])
        assert p == pytest.approx(0.002375, abs=1e-15)

    def test_matches_collision_frequency(self):
        rng = np.random.default_rng(5)
        trials = 400_000
        draws = rng.integers(0, 20, size=(trials, 2, 3))
        same = draws[:, 0, :] == draws[:, 1, :]
        freq = np.mean(same[:, 0] & ~same[:, 1] & same[:, 2])
        se = math.sqrt(0.002375 * (1 - 0.002375) / trials)
        assert abs(freq - 0.002375) < 4 * se

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError, match=r"^leg index 3 outside 0\.\.2$"):
            omega_probability({3}, [5, 5, 5])

    @pytest.mark.parametrize("sizes, fault", [
        ([0], r"\(0\) must be >= 1"),
        ([2.5], r"\(2\.5\) must be integers"),
        ([5, math.inf], r"\(5, inf\) must be integers"),
        ([math.nan], r"\(nan\) must be integers"),
        ([3, 10**400], rf"\(3, {10**400}\) must be integers"),
    ], ids=["zero", "fraction", "infinite", "nan", "beyond-double"])
    def test_sizes_that_cannot_exist_rejected(self, sizes, fault):
        # No draw has these sizes, so no probability may come back for them.
        with pytest.raises(ValidationError, match=fault):
            omega_probability([0], sizes)
        with pytest.raises(ValidationError, match=fault):
            omega_probability([], sizes)

    def test_completeness(self):
        sizes = [3, 7, 2, 9]
        total = sum(
            omega_probability({i for i in range(4) if mask >> i & 1}, sizes)
            for mask in range(16)
        )
        assert total == pytest.approx(1.0, abs=1e-14)


class TestPairProbability:
    # A delay-side and a service-side pattern occur independently, so their
    # joint probability is the product of the two omega probabilities.
    def test_forced(self):
        p = omega_probability({0, 1}, [1, 1]) * omega_probability({0, 1}, [1, 1])
        assert p == 1.0

    def test_impossible_pattern(self):
        assert omega_probability(set(), [1]) * omega_probability({0}, [4]) == 0.0

    def test_one_leg_split(self):
        p = omega_probability({0}, [20]) * omega_probability(set(), [20])
        assert p == pytest.approx(0.0475, abs=1e-15)


class TestKernels:
    def test_all_cases_vanish_at_zero_slack(self):
        kernels = leg_kernels(REFERENCE_LEG, 0.0, "closed_form")
        for case in ("both", "neither", "service_only", "delay_only"):
            assert getattr(kernels, case).value == 0.0

    def test_reference_point_closed_form(self):
        kernels = leg_kernels(REFERENCE_LEG, 140.0, "closed_form")
        assert kernels.both.value == pytest.approx(H_BOTH, abs=1e-12)
        assert kernels.neither.value == pytest.approx(H_NEITHER, abs=1e-12)
        assert kernels.service_only.value == pytest.approx(H_SERVICE_ONLY, abs=1e-12)
        assert kernels.delay_only.value == pytest.approx(H_DELAY_ONLY, abs=1e-12)

    def test_reference_point_quadrature_agrees(self):
        closed = leg_kernels(REFERENCE_LEG, 140.0, "closed_form")
        quad = leg_kernels(REFERENCE_LEG, 140.0, "quadrature")
        for case in ("both", "neither", "service_only", "delay_only"):
            assert getattr(closed, case).value == pytest.approx(
                getattr(quad, case).value, abs=1e-8
            )

    def test_plugin_kernels_hand_computed(self):
        leg = Leg(samples=LegSamples((1.0, 3.0), (1.0, 3.0)))
        kernels = leg_kernels(leg, 4.0, "plugin")
        assert kernels.both.value == 0.75
        assert kernels.neither.value == 0.5625
        assert kernels.service_only.value == pytest.approx(0.625, abs=1e-15)
        assert kernels.delay_only.value == pytest.approx(0.625, abs=1e-15)

    def test_near_singular_flags(self):
        # On b = a, b = 2a and a = 2b two kernel rates coincide; they are
        # confluent nodes of one evaluator, with no fallback and no flag.
        for b in (0.05, 0.1, 0.025):
            leg = Leg(rates=ExponentialLegModel(0.05, b))
            closed = leg_kernels(leg, 40.0, "closed_form")
            quad = leg_kernels(leg, 40.0, "quadrature")
            for case in ("both", "neither", "service_only", "delay_only"):
                kernel = getattr(closed, case)
                assert kernel.method == "closed_form" and not kernel.near_singular
                assert kernel.value == pytest.approx(
                    getattr(quad, case).value, abs=1e-8
                )

    def test_closed_form_makes_no_quadrature_calls(self, monkeypatch):
        calls = []
        real = distributions.adaptive_quadrature

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(distributions, "adaptive_quadrature", counted)
        for b in (0.02, 0.05, 0.1, 0.025, 0.05 * (1.0 + 3e-7)):
            leg = Leg(rates=ExponentialLegModel(0.05, b))
            leg_kernels(leg, 40.0, "closed_form")
        assert calls == []
        leg_kernels(leg, 40.0, "quadrature")
        assert len(calls) == 3

    def test_mode_requirements(self):
        # Only plug-in mode needs samples; every mode counts a leg without
        # rates. A direct call names no leg, the pipeline the leg at fault.
        with pytest.raises(ValidationError, match="^plugin kernels need samples$") as info:
            leg_kernels(REFERENCE_LEG, 10.0, "plugin")
        assert info.value.leg is None
        leg = Leg(samples=LegSamples((1.0,), (1.0,)))
        plugin = leg_kernels(leg, 10.0, "plugin")
        assert leg_kernels(leg, 10.0, "closed_form") == plugin
        assert plugin.both == KernelEvaluation(1.0, "plugin")
        scenario = Scenario(CirculationPlan((10.0, 10.0)), (leg, REFERENCE_LEG))
        with pytest.raises(ValidationError, match="^leg 2: plugin kernels need samples$") as info:
            variance_pipeline(scenario, 5, mode="plugin", sizes_x=[1, 1], sizes_y=[1, 1])
        assert info.value.leg == 1

    @pytest.mark.parametrize("call, message", [
        (lambda: leg_kernels(REFERENCE_LEG, 10.0, "plug-in"), "unknown kernel mode 'plug-in'"),
        (lambda: leg_kernels(REFERENCE_LEG, 10.0, "auto"), "unknown kernel mode 'auto'"),
        (lambda: variance_pipeline(two_point_scenario(), 10, mode="closed-form"),
         "unknown kernel mode 'closed-form'"),
        (lambda: variance_pipeline(two_point_scenario(), 10, mode="auto"),
         "unknown kernel mode 'auto'"),
        (lambda: variance_pipeline(two_point_scenario(), 10, method="enumerated"),
         "unknown mu11 method 'enumerated'"),
        (lambda: run_suite("nope", 0), "unknown suite 'nope'"),
    ], ids=["kernels", "kernels-auto", "pipeline", "pipeline-auto", "method", "suite"])
    def test_unknown_mode_rejected(self, call, message):
        with pytest.raises(ValidationError, match=f"^{message}$") as info:
            call()
        assert info.value.leg is None

    @pytest.mark.parametrize("a", (1e-3, 0.02, 1.0, 50.0, 1e6, 1e12))
    @pytest.mark.parametrize("b", (1e-3, 0.02, 1.0, 50.0, 1e6, 1e12))
    def test_quadrature_matches_closed_form_at_any_rate_times_slack(self, a, b):
        # Rate times slack from 1e-5 to 1e18: a fast rate on either side puts
        # the integrand's mass in a sliver of [0, t] that panels over the
        # whole interval miss. The bound is the kernels suite's.
        leg = Leg(rates=ExponentialLegModel(a, b))
        grid = (0.01, 1.0, 140.0, 1e4, 1e6)
        closed = leg_kernels(leg, grid, "closed_form")
        quad = leg_kernels(leg, grid, "quadrature")
        for case in ("both", "service_only", "delay_only"):
            for got, want in zip(getattr(quad, case), getattr(closed, case)):
                assert abs(got - want) <= 1e-8

    @given(st.floats(0.005, 0.5), st.floats(0.005, 0.5), st.floats(0.0, 400.0))
    @settings(max_examples=120)
    def test_ordering_invariant(self, a, b, t):
        kernels = leg_kernels(Leg(rates=ExponentialLegModel(a, b)), t, "closed_form")
        r = kernels.both.value
        for middle in (kernels.service_only.value, kernels.delay_only.value):
            assert kernels.neither.value <= middle + 1e-10
            assert middle <= r + 1e-10


class TestConditionalMixedMoment:
    # Conditioned on the coincidence pattern (omega1, omega2) the mixed moment
    # is the product over legs of the kernel named by the leg's pattern:
    # delay indices coincide on omega1, service indices on omega2.
    CASES = {(True, True): "both", (True, False): "delay_only",
             (False, True): "service_only", (False, False): "neither"}

    @classmethod
    def moment(cls, scenario, omega1, omega2):
        return math.prod(
            getattr(leg_kernels(leg, t, "closed_form"), cls.CASES[i in omega1, i in omega2]).value
            for i, (leg, t) in enumerate(zip(scenario.legs, scenario.plan.intervals))
        )

    def test_full_coincidence_is_theta(self):
        value = self.moment(reference_scenario(140.0, k=3), {0, 1, 2}, {0, 1, 2})
        assert value == pytest.approx(H_BOTH**3, rel=1e-12)

    def test_no_coincidence_is_theta_squared(self):
        value = self.moment(reference_scenario(140.0, k=3), set(), set())
        assert value == pytest.approx((H_BOTH**3) ** 2, rel=1e-10)

    def test_mixed_pair_is_product(self):
        value = self.moment(reference_scenario(140.0, k=2), {0}, {1})
        assert value == pytest.approx(H_DELAY_ONLY * H_SERVICE_ONLY, rel=1e-12)


class TestMixedMoment:
    def test_singleton_samples_force_theta(self):
        scenario = reference_scenario(140.0, k=4)
        mu11 = mixed_moment_mu11(scenario, [1] * 4, [1] * 4, mode="closed_form")
        assert mu11 == pytest.approx(H_BOTH**4, rel=1e-12)

    def test_reference_configuration(self):
        mu11 = mixed_moment_mu11(
            reference_scenario(140.0), [20] * 5, [20] * 5, mode="closed_form"
        )
        assert mu11 == pytest.approx(0.3535319033097205, rel=1e-10)
        assert mu11 == pytest.approx(0.353525, abs=2e-5)

    def test_methods_agree_on_mixed_scenario(self, rng):
        for _ in range(10):
            scenario = random_scenario(rng)
            sizes_x, sizes_y = random_sizes(rng, scenario.plan.k)
            factorized = mixed_moment_mu11(scenario, sizes_x, sizes_y)
            enumerated = mixed_moment_mu11(scenario, sizes_x, sizes_y, method="enumerate")
            assert abs(factorized - enumerated) < 1e-12

    @pytest.mark.parametrize("legs, intervals, sizes, mode", [
        pytest.param(  # a size-1 family gives patterns of weight zero
            [LegSamples((2.0,), (1.0, 5.0)), LegSamples((0.5, 3.0, 4.0), (2.0,))],
            (4.0, 6.0), None, "plugin", id="size-1-families"),
        pytest.param(
            [LegSamples((1.0, 2.5), (3.0, 4.0, 0.0)), LegSamples((0.5, 3.0), (2.0, 6.0))],
            (10.0, 5.0), None, "plugin", id="all-fit-leg"),
        pytest.param([LegSamples((0.1, 0.3), (0.4, 0.2))], (0.5,), None, "plugin",
                     id="decimal-tie"),
        pytest.param(
            [ExponentialLegModel(0.05, 0.02), LegSamples((3.1, 0.0, 11.4), (14.0, 9.5)),
             ExponentialLegModel(0.1, 0.1)],
            (140.0, 25.0, 30.0), ([20, 3, 1], [20, 2, 4]), "closed_form",
            id="rates-and-samples"),
    ])
    def test_methods_agree_on_plugin_tables(self, legs, intervals, sizes, mode):
        scenario = Scenario(
            plan=CirculationPlan(intervals),
            legs=tuple(Leg(samples=leg) if isinstance(leg, LegSamples) else Leg(rates=leg)
                       for leg in legs),
        )
        sizes_x, sizes_y = sizes or (None, None)
        factorized = mixed_moment_mu11(scenario, sizes_x, sizes_y, mode=mode)
        enumerated = mixed_moment_mu11(scenario, sizes_x, sizes_y, mode=mode, method="enumerate")
        assert abs(factorized - enumerated) <= 1e-12

    def test_enumeration_guard(self):
        scenario = reference_scenario(100.0, k=13)
        with pytest.raises(EnumerationTooLarge):
            mixed_moment_mu11(scenario, [2] * 13, [2] * 13, method="enumerate")


class TestEstimatorVariance:
    def test_single_realization_is_bernoulli(self):
        report = estimator_variance(0.5, 0.9, r=1)
        assert report.variance == 0.25

    def test_independence_limit(self):
        theta = 0.37
        report = estimator_variance(theta, theta * theta, r=25)
        assert report.variance == pytest.approx(theta * (1 - theta) / 25, rel=1e-12)

    def test_reference_row(self):
        report = estimator_variance(0.5880592807374714, 0.3535319033097205, r=50)
        assert report.variance == pytest.approx(0.0124, abs=1e-4)

    def test_formula_invariant(self):
        theta, mu11, r = 0.6, 0.4, 7
        report = estimator_variance(theta, mu11, r)
        assert report.variance == pytest.approx(
            theta / r + (r - 1) / r * mu11 - theta * theta, abs=1e-15
        )
        assert report.mu2 == theta

    def test_rounding_clamp_and_error(self):
        # mu11 slightly below theta**2 at huge r: formula dips a hair negative.
        assert estimator_variance(0.5, 0.25 - 3.5e-13, r=10**12).variance == 0.0
        with pytest.raises(NegativeVariance):
            estimator_variance(0.9, 0.1, r=1000)

    def test_input_validation(self):
        with pytest.raises(ValidationError, match=r"^theta 1\.2$"):
            estimator_variance(1.2, 0.5, r=10)
        with pytest.raises(ValidationError, match=r"^mu11 -0\.1$"):
            estimator_variance(0.5, -0.1, r=10)
        with pytest.raises(ValidationError):
            estimator_variance(0.5, 0.4, r=0)
        # A count float() cannot hold is not finite, as inf and nan are not.
        for r in (10**400, math.inf, math.nan):
            with pytest.raises(ValidationError, match=rf"^realization count {r!r} must be finite$"):
                estimator_variance(0.5, 0.4, r=r)


class TestVariancePipeline:
    def test_reference_endpoints(self):
        low = variance_pipeline(
            reference_scenario(20.0), r=50, mode="closed_form",
            sizes_x=[20] * 5, sizes_y=[20] * 5,
        )
        high = variance_pipeline(
            reference_scenario(300.0), r=50, mode="closed_form",
            sizes_x=[20] * 5, sizes_y=[20] * 5,
        )
        assert low.variance == pytest.approx(6.9e-7, abs=1e-8)
        assert high.variance == pytest.approx(0.0011, abs=1e-4)

    def test_moments_ordered(self):
        report = variance_pipeline(
            reference_scenario(140.0), r=50, mode="closed_form",
            sizes_x=[20] * 5, sizes_y=[20] * 5,
        )
        assert report.theta**2 - 1e-12 <= report.mu11 <= report.theta + 1e-12
        assert report.variance >= 0.0
        assert len(report.per_leg_h) == 5

    def test_variance_vanishes_with_big_samples_and_many_realizations(self):
        scenario = reference_scenario(140.0, k=2)
        by_n = [
            variance_pipeline(
                scenario, r=50, mode="closed_form", sizes_x=[n] * 2, sizes_y=[n] * 2
            ).variance
            for n in (2, 20, 200, 2000, 10**6)
        ]
        assert all(b < a for a, b in zip(by_n, by_n[1:]))
        by_r = [
            variance_pipeline(
                scenario, r=r, mode="closed_form", sizes_x=[10**6] * 2, sizes_y=[10**6] * 2
            ).variance
            for r in (1, 10, 100, 10**4, 10**6)
        ]
        assert all(b < a for a, b in zip(by_r, by_r[1:]))
        # Only the joint limit kills both noise sources.
        assert by_r[-1] < 1e-6

    def test_plugin_mode_derives_sizes(self):
        scenario = Scenario(
            plan=CirculationPlan((4.0, 6.0)),
            legs=(
                Leg(samples=LegSamples((1.0, 3.0), (1.0, 3.0))),
                Leg(samples=LegSamples((2.0, 5.0, 1.0), (0.5, 2.5))),
            ),
        )
        report = variance_pipeline(scenario, r=3, mode="plugin")
        assert report.kernel_mode == "plugin"
        assert 0.0 <= report.variance <= 0.25

    @pytest.mark.parametrize("t", [0.001, 1.0])
    def test_reference_matches_mpmath_at_small_slack(self, t):
        mpmath = pytest.importorskip("mpmath")
        n, r = 20, 50
        report = variance_pipeline(
            reference_scenario(t), r=r, mode="closed_form",
            sizes_x=[n] * 5, sizes_y=[n] * 5,
        )
        with mpmath.workdps(30):
            R, S, D = mp_exponential_kernels(
                REFERENCE_DELAY_RATE, REFERENCE_SERVICE_RATE, t
            )
            p = mpmath.mpf(1) / n
            factor = p * p * R + (1 - p) ** 2 * R * R + (1 - p) * p * (S + D)
            theta = R**5
            mu11 = factor**5
            variance = theta / r + mpmath.mpf(r - 1) / r * mu11 - theta * theta
            for got, exact in (
                (report.theta, theta), (report.mu11, mu11), (report.variance, variance)
            ):
                assert abs(got - exact) <= 1e-12 * exact

    def test_sizes_required_for_exponential_legs(self):
        with pytest.raises(ValidationError):
            variance_pipeline(reference_scenario(140.0), r=50, mode="closed_form")

    def test_non_integral_sizes_rejected(self):
        with pytest.raises(ValidationError, match="must be integers"):
            variance_pipeline(reference_scenario(140.0), 50, sizes_x=[2.5] * 5, sizes_y=[2.5] * 5)
        whole = variance_pipeline(reference_scenario(140.0), 50, sizes_x=[2.0] * 5,
                                  sizes_y=[2.0] * 5)
        assert whole == variance_pipeline(reference_scenario(140.0), 50, sizes_x=[2] * 5,
                                          sizes_y=[2] * 5)


# Tenth-minute observations against whole-number slack. Some services are
# drawn as t minus a delay, so pairs tie at x + y = t in decimal, and the
# resampler's test fl(x + y) <= t decides each tie (0.1 + 0.9 fits t = 1
# although 0.1 > fl(1 - 0.9)).
@st.composite
def tie_legs(draw):
    t = draw(st.integers(1, 3))
    tenths = st.integers(0, 10 * t)
    delays = draw(st.lists(tenths, min_size=1, max_size=3))
    complements = st.sampled_from([10 * t - a for a in delays])
    services = draw(st.lists(st.one_of(tenths, complements), min_size=1, max_size=3))
    samples = LegSamples(tuple(a / 10 for a in delays), tuple(b / 10 for b in services))
    return samples, float(t)


@given(st.lists(tie_legs(), min_size=1, max_size=2), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_sample_kernels_match_enumeration_on_ties(legs, r):
    scenario = Scenario(
        plan=CirculationPlan(tuple(t for _, t in legs)),
        legs=tuple(Leg(samples=samples) for samples, _ in legs),
    )
    exact = enumerate_exact(scenario, ResamplingConfig(r=r), samples_random=True)
    for mode in ("plugin", "quadrature"):
        report = variance_pipeline(scenario, r=r, mode=mode)
        assert abs(report.theta - exact.expected_theta_star) <= 1e-12
        assert abs(report.variance - exact.exact_variance) <= 1e-12
