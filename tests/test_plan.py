import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circrel import (
    CirculationPlan,
    EmptyPlan,
    EmptySample,
    ExponentialLegModel,
    InvalidSampleValue,
    Leg,
    LegCountMismatch,
    LegSamples,
    NegativeSlack,
    NonpositiveRate,
    OutOfRangeProbability,
    Scenario,
    plan_reliability,
    validate_scenario,
)
from tests.conftest import reference_scenario


class TestValidateScenario:
    def test_five_exponential_legs_valid(self):
        scenario = reference_scenario(140.0)
        assert validate_scenario(scenario) is scenario

    def test_negative_slack_names_leg(self):
        scenario = Scenario(
            plan=CirculationPlan((5.0, -1.0, 5.0)),
            legs=tuple(Leg(rates=ExponentialLegModel(0.1, 0.1)) for _ in range(3)),
        )
        with pytest.raises(NegativeSlack) as info:
            validate_scenario(scenario)
        assert info.value.leg == 1

    def test_leg_count_mismatch(self):
        scenario = Scenario(
            plan=CirculationPlan((5.0, 5.0, 5.0)),
            legs=tuple(Leg(rates=ExponentialLegModel(0.1, 0.1)) for _ in range(2)),
        )
        with pytest.raises(LegCountMismatch):
            validate_scenario(scenario)

    def test_empty_plan(self):
        with pytest.raises(EmptyPlan):
            validate_scenario(Scenario(plan=CirculationPlan(()), legs=()))

    def test_empty_sample_names_leg(self):
        scenario = Scenario(
            plan=CirculationPlan((5.0,)),
            legs=(Leg(samples=LegSamples((), (1.0,))),),
        )
        with pytest.raises(EmptySample) as info:
            validate_scenario(scenario)
        assert info.value.leg == 0

    def test_negative_sample_value_rejected(self):
        scenario = Scenario(
            plan=CirculationPlan((5.0,)),
            legs=(Leg(samples=LegSamples((1.0,), (-2.0,))),),
        )
        with pytest.raises(InvalidSampleValue):
            validate_scenario(scenario)

    def test_nonpositive_rate(self):
        scenario = Scenario(
            plan=CirculationPlan((5.0,)),
            legs=(Leg(rates=ExponentialLegModel(0.0, 0.1)),),
        )
        with pytest.raises(NonpositiveRate):
            validate_scenario(scenario)

    def test_bare_leg_rejected(self):
        scenario = Scenario(plan=CirculationPlan((5.0,)), legs=(Leg(),))
        with pytest.raises(LegCountMismatch):
            validate_scenario(scenario)


class TestPlanReliability:
    def test_identity_on_ones(self):
        assert plan_reliability((1.0, 1.0, 1.0)) == 1.0

    def test_absorbing_zero(self):
        assert plan_reliability((0.5, 0.0)) == 0.0

    def test_single_leg_identity(self):
        assert plan_reliability((0.37,)) == 0.37

    def test_five_identical_legs(self):
        # Leg value frozen from the quadrature route at rates (0.05, 0.02), t=140.
        leg = 0.8992578169350064
        assert math.isclose(plan_reliability((leg,) * 5), leg**5, rel_tol=1e-12)
        assert abs(plan_reliability((0.8992578,) * 5) - 0.588058) < 5e-6

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeProbability):
            plan_reliability((0.5, 1.2))
        with pytest.raises(OutOfRangeProbability):
            plan_reliability((-0.1,))

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), st.randoms())
    def test_permutation_invariant_and_bounded(self, values, shuffler):
        product = plan_reliability(values)
        shuffled = list(values)
        shuffler.shuffle(shuffled)
        assert plan_reliability(shuffled) == pytest.approx(product, abs=1e-15)
        assert product <= min(values) + 1e-15
