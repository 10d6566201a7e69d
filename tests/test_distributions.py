import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circrel import (
    ExponentialLegModel,
    Leg,
    LegSamples,
    ValidationError,
    leg_kernels,
    leg_reliability_exponential,
    leg_reliability_plugin,
    leg_reliability_quadrature,
)
from circrel import distributions
from tests.conftest import mp_exponential_kernels

rates = st.floats(0.005, 0.5)
times = st.floats(0.0, 500.0)
# Pairs on the lines b = a, b = 2a and a = 2b, where two kernel rates
# coincide, exactly or nudged just off them.
tube_pairs = st.builds(
    lambda a, line, nudge: (a, line * a * (1.0 + nudge)),
    rates,
    st.sampled_from((1.0, 2.0, 0.5)),
    st.sampled_from((0.0, 1e-9, -1e-7, 3e-6, -1e-5)),
)
CASES = ("both", "service_only", "delay_only")


class TestCdf:
    def test_exponential_origin_and_tail(self):
        # The quadrature kernel's factor F(t - x) is 0 at and below the origin.
        assert distributions._quadrature_kernel(0.05, 0.02, 0.0, 1) == 0.0
        assert distributions._quadrature_kernel(0.05, 0.02, 1e9, 1) == pytest.approx(1.0)


class TestExponentialClosedForm:
    def test_zero_slack(self):
        assert leg_reliability_exponential(ExponentialLegModel(0.3, 0.07), 0.0) == 0.0

    def test_reference_rates_frozen(self):
        # Frozen from adaptive quadrature of the convolution, rel err <= 1e-9.
        value = leg_reliability_exponential(ExponentialLegModel(0.05, 0.02), 140.0)
        assert value == pytest.approx(0.8992578169350064, abs=1e-12)

    def test_equal_rates_erlang_limit(self):
        value = leg_reliability_exponential(ExponentialLegModel(0.05, 0.05), 40.0)
        assert value == pytest.approx(1.0 - 3.0 * math.exp(-2.0), abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError, match=r"^slack time -1\.0$"):
            leg_reliability_exponential(ExponentialLegModel(0.1, 0.1), -1.0)

    def test_monotone_in_slack(self):
        leg = ExponentialLegModel(0.05, 0.02)
        grid = [leg_reliability_exponential(leg, t) for t in np.linspace(0, 400, 200)]
        assert all(b >= a - 1e-12 for a, b in zip(grid, grid[1:]))

    @given(st.one_of(st.tuples(rates, rates), tube_pairs), times)
    @settings(max_examples=150)
    def test_matches_quadrature_including_tube_lines(self, pair, t):
        a, b = pair
        closed = leg_reliability_exponential(ExponentialLegModel(a, b), t)
        quad = leg_reliability_quadrature(ExponentialLegModel(a, b), t)
        assert abs(closed - quad) < 1e-8
        assert 0.0 <= closed <= 1.0

    def test_kernels_match_mpmath(self):
        pytest.importorskip("mpmath")
        pairs = [(0.05, 0.02), (0.2, 0.01)] + [
            (0.05, line * 0.05 * (1.0 + nudge))
            for line in (1.0, 2.0, 0.5)
            for nudge in (0.0, 1e-7, -3e-6)
        ]
        worst = 0.0
        for a, b in pairs:
            leg = Leg(rates=ExponentialLegModel(a, b))
            for t in (1e-3, 1.0, 10.0, 140.0, 1200.0, 5000.0, 1e4):
                kernels = leg_kernels(leg, t, "closed_form")
                for case, exact in zip(CASES, mp_exponential_kernels(a, b, t)):
                    got = getattr(kernels, case).value
                    worst = max(worst, float(abs(got - exact) / exact))
        assert worst <= 1e-13

    def test_extreme_inputs_stay_in_range(self):
        # Once rate * t overflows, naive node differences are inf - inf.
        for a in (1e300, 1.0, 1e-300):
            for b in (1e300, 1.0, 1e-300):
                leg = Leg(rates=ExponentialLegModel(a, b))
                for t in (0.0, 1e-10, 1.0, 1e10):
                    kernels = leg_kernels(leg, t, "closed_form")
                    for case in CASES:
                        value = getattr(kernels, case).value
                        assert 0.0 <= value <= 1.0, (a, b, t, case, value)
                        assert t > 0.0 or value == 0.0
        # A stage far faster than the slack leaves the other one's CDF.
        fast = leg_reliability_exponential(ExponentialLegModel(1e300, 1.0), 1.0)
        assert fast == pytest.approx(-math.expm1(-1.0), rel=1e-15)


class TestQuadratureKernel:
    def test_zero_slack(self):
        assert leg_reliability_quadrature(ExponentialLegModel(0.1, 0.2), 0.0) == 0.0

    def test_rejects_bad_rates_and_time(self):
        with pytest.raises(ValidationError, match=r"^rate 0\.0$"):
            leg_reliability_quadrature(ExponentialLegModel(0.0, 0.2), 1.0)
        with pytest.raises(ValidationError, match="^rate nan$"):
            leg_reliability_quadrature(ExponentialLegModel(0.1, math.nan), 1.0)
        with pytest.raises(ValidationError, match=r"^slack time -1\.0$"):
            leg_reliability_quadrature(ExponentialLegModel(0.1, 0.2), -1.0)

    @pytest.mark.parametrize("mode", ["closed_form", "quadrature"])
    def test_empirical_pair_equals_plugin(self, mode):
        # On a leg without rates, every mode integrates one empirical law
        # against another, a finite sum: the same counts as plug-in mode.
        leg = Leg(samples=LegSamples((1.0, 3.0, 7.0), (2.0, 2.0, 4.0)))
        assert leg_kernels(leg, 6.0, mode) == leg_kernels(leg, 6.0, "plugin")
        assert leg_kernels(leg, 6.0, mode).both.method == "plugin"


@st.composite
def fit_count_cases(draw):
    """Tenth-minute delays and services, with repeats, size-1 families and
    services that tie a delay against a whole-minute slack, and one slack,
    a short grid, or a grid with more slacks than the leg has pairs, in
    ascending or any order. Between them they take both walks."""
    tenths = st.integers(0, 40)
    delays = draw(st.lists(tenths, min_size=1, max_size=6))
    ties = st.sampled_from([10 * t - a for a in delays for t in (1, 2, 3, 4)
                            if 10 * t >= a])
    services = draw(st.lists(st.one_of(tenths, ties), min_size=1, max_size=6))
    slacks = st.integers(0, 80)
    grid = draw(st.one_of(
        st.integers(0, 8).map(lambda t: [5 * t]),
        st.lists(slacks, min_size=1, max_size=4),
        st.lists(slacks, min_size=len(delays) * len(services) + 1, max_size=60),
    ))
    if draw(st.booleans()):
        grid.sort()
    return (tuple(a / 10 for a in delays), tuple(b / 10 for b in services),
            tuple(t / 10 for t in grid))


@given(fit_count_cases())
@settings(max_examples=300, deadline=None)
def test_fit_counts_match_the_pair_matrix(case):
    # Either walk must give what counting every delay/service pair against
    # every slack gives, decimal ties included, whichever one the sizes pick.
    delays, services, grid = case
    fits = (np.add.outer(delays, services)[..., None] <= np.asarray(grid)).astype(np.int64)
    c, d = fits.sum(axis=0), fits.sum(axis=1)  # per service, per delay
    expected = (c.sum(axis=0).tolist(), (c * c).sum(axis=0).tolist(),
                (d * d).sum(axis=0).tolist())
    assert distributions._fit_counts(delays, services, grid) == expected
    xs, ys, ascending = sorted(delays), sorted(services), sorted(grid)
    assert distributions._slack_walk(xs, ys, list(grid)) == list(expected)
    order = np.argsort(grid, kind="stable")
    assert distributions._pair_walk(xs, ys, ascending) == [
        np.asarray(column)[order].tolist() for column in expected]
    # Every mode gives a leg without rates its kernels from these counts, bit
    # for bit plug-in mode's.
    leg = Leg(samples=LegSamples(delays, services))
    nx, ny = len(delays), len(services)
    plugin = leg_kernels(leg, grid, "plugin")
    assert plugin.method == "plugin"
    assert plugin.both == [s / (nx * ny) for s in expected[0]]
    for mode in ("closed_form", "quadrature"):
        assert leg_kernels(leg, grid, mode) == plugin


class TestPluginKernel:
    def test_boundary_pair(self):
        assert leg_reliability_plugin(LegSamples((0.0,), (0.0,)), 0.0) == 1.0

    def test_exhaustive_two_by_two(self):
        assert leg_reliability_plugin(LegSamples((1.0, 3.0), (1.0, 3.0)), 4.0) == 0.75

    def test_no_satisfying_pair(self):
        assert leg_reliability_plugin(LegSamples((5.0,), (5.0,)), 4.0) == 0.0

    def test_monotone_in_slack(self):
        samples = LegSamples((1.0, 3.0, 8.0), (0.5, 2.0))
        grid = [leg_reliability_plugin(samples, t) for t in np.linspace(0, 12, 60)]
        assert all(b >= a for a, b in zip(grid, grid[1:]))


def test_tube_fallback_continuous():
    # Stepping across b = a * (1 - 1e-6) moves the value by far less than 1e-6.
    a = 0.05
    for t in (20.0, 140.0, 400.0):
        inside = leg_reliability_exponential(
            ExponentialLegModel(a, a * (1.0 - 0.999e-6)), t
        )
        outside = leg_reliability_exponential(
            ExponentialLegModel(a, a * (1.0 - 1.001e-6)), t
        )
        assert abs(inside - outside) < 1e-6


def test_fit_counts_recount_a_list_changed_in_place():
    # The kept result is keyed on copies, so an edited list is counted again.
    delays = [1.0, 2.0]
    assert distributions._fit_counts(delays, (1.0,), (2.5,)) == ([1], [1], [1])
    delays[1] = 0.5
    assert distributions._fit_counts(delays, (1.0,), (2.5,)) == ([2], [4], [2])
