"""Self-check suites wiring the oracles against the analytic pipeline.

Three suites, mirroring the three trust boundaries:

* ``exact``    -- exhaustive enumeration vs the plug-in analytic variance on
                  tiny fixtures (tolerance 1e-12);
* ``kernels``  -- exponential closed-form kernels vs adaptive quadrature on a
                  rate/time grid (1e-8 off the singular tubes, 1e-6 fallback
                  continuity across them);
* ``montecarlo`` -- joint-law simulation vs the analytic variance within
                  statistical error.

Each check reports the observed discrepancy and the bound it was held to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import RATE_TUBE, leg_reliability_plugin
from .oracles import enumerate_exact, simulate_pipeline_variance
from .plan import (
    CirculationPlan,
    ExponentialLegModel,
    Leg,
    LegSamples,
    Scenario,
    plan_reliability,
)
from .resampler import ResamplingConfig
from .variance import leg_kernels, variance_pipeline


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    bound: float


def _check(name: str, observed: float, bound: float) -> CheckResult:
    return CheckResult(name=name, passed=observed <= bound, observed=observed, bound=bound)


def _tiny_fixtures() -> list[tuple[str, Scenario]]:
    return [
        (
            "one_leg_two_point",
            Scenario(
                plan=CirculationPlan((4.0,)),
                legs=(Leg(samples=LegSamples((1.0, 3.0), (1.0, 3.0))),),
            ),
        ),
        (
            "two_leg_three_point",
            Scenario(
                plan=CirculationPlan((4.0, 7.0)),
                legs=(
                    Leg(samples=LegSamples((1.0, 3.0, 5.0), (0.5, 2.0, 4.0))),
                    Leg(samples=LegSamples((2.0, 2.0, 6.0), (1.0, 3.0, 3.0))),
                ),
            ),
        ),
        (
            "two_leg_tight_slack",
            Scenario(
                plan=CirculationPlan((2.0, 9.0)),
                legs=(
                    Leg(samples=LegSamples((0.0, 2.0), (0.0, 1.0))),
                    Leg(samples=LegSamples((4.0, 8.0), (1.0, 2.0, 5.0))),
                ),
            ),
        ),
        (
            # 0.1 + 0.4 and 0.3 + 0.2 round to exactly 0.5: ties that fit.
            "one_leg_decimal_tie",
            Scenario(
                plan=CirculationPlan((0.5,)),
                legs=(Leg(samples=LegSamples((0.1, 0.3), (0.4, 0.2))),),
            ),
        ),
    ]


def exact_suite() -> list[CheckResult]:
    """Enumeration oracle vs plug-in reliability and analytic variance."""
    tolerance = 1e-12
    results = []
    for name, scenario in _tiny_fixtures():
        plugin_theta = plan_reliability(
            [leg_reliability_plugin(leg.samples, t)
             for leg, t in zip(scenario.legs, scenario.plan.intervals)]
        )
        for r in (1, 2, 3):
            fixed = enumerate_exact(scenario, ResamplingConfig(r=r))
            results.append(_check(
                f"{name}/r={r}/unbiased_vs_plugin",
                abs(fixed.expected_theta_star - plugin_theta),
                tolerance,
            ))
            random_draw = enumerate_exact(
                scenario, ResamplingConfig(r=r), samples_random=True
            )
            analytic = variance_pipeline(scenario, r=r, mode="plugin")
            results.append(_check(
                f"{name}/r={r}/variance_vs_analytic",
                abs(random_draw.exact_variance - analytic.variance),
                tolerance,
            ))
    return results


_GRID_RATES = (0.01, 0.02, 0.05, 0.1, 0.2)
_GRID_TIMES = (2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 400.0)
_CASES = ("both", "neither", "service_only", "delay_only")


def kernels_suite() -> list[CheckResult]:
    """Closed-form kernels vs quadrature off the tubes; continuity across them."""
    worst = 0.0
    compared = 0
    for a in _GRID_RATES:
        for b in _GRID_RATES:
            leg = Leg(rates=ExponentialLegModel(a, b))
            for t in _GRID_TIMES:
                closed = leg_kernels(leg, t, "closed_form")
                quad = leg_kernels(leg, t, "quadrature")
                for case in _CASES:
                    c = getattr(closed, case)
                    if c.near_singular:
                        continue
                    compared += 1
                    worst = max(worst, abs(c.value - getattr(quad, case).value))
    results = [_check(f"grid_closed_vs_quadrature[{compared} points]", worst, 1e-8)]

    # Straddle each tube edge with a pair of rate points 0.2% of the tube
    # width apart, so any jump measured is the evaluation-path switch, not
    # genuine variation of the kernel.
    jump = 0.0
    for base in (0.02, 0.1):
        for t in (10.0, 50.0, 200.0):
            for line in (1.0, 2.0, 0.5):  # b = a, b = 2a, a = 2b
                center = line * base
                for side in (1.0 - 0.999 * RATE_TUBE, 1.0 + 0.999 * RATE_TUBE):
                    b_in = center * side
                    b_out = center * (1.0 + (side - 1.0) * 1.001 / 0.999)
                    inside = leg_kernels(
                        Leg(rates=ExponentialLegModel(base, b_in)), t, "closed_form"
                    )
                    outside = leg_kernels(
                        Leg(rates=ExponentialLegModel(base, b_out)), t, "closed_form"
                    )
                    for case in _CASES:
                        jump = max(jump, abs(
                            getattr(inside, case).value - getattr(outside, case).value
                        ))
    results.append(_check("tube_fallback_continuity", jump, 1e-6))
    return results


def montecarlo_suite(seed: int, replications: int = 20000) -> list[CheckResult]:
    """Joint-law simulation vs analytic variance on a scaled configuration."""
    scenario = Scenario(
        plan=CirculationPlan((140.0, 140.0)),
        legs=tuple(Leg(rates=ExponentialLegModel(0.05, 0.02)) for _ in range(2)),
    )
    sizes = [5, 5]
    r = 10
    analytic = variance_pipeline(
        scenario, r=r, mode="closed_form", sizes_x=sizes, sizes_y=sizes
    )
    mc = simulate_pipeline_variance(scenario, sizes, sizes, r, replications, seed)
    se_mean = math.sqrt(mc.empirical_variance / replications)
    return [
        _check(
            "variance_within_3_se",
            abs(mc.empirical_variance - analytic.variance),
            3.0 * mc.standard_error_of_variance,
        ),
        _check(
            "mean_within_4_se",
            abs(mc.mean_theta_star - analytic.theta),
            4.0 * se_mean,
        ),
    ]


SUITES = {
    "exact": lambda seed, replications: exact_suite(),
    "kernels": lambda seed, replications: kernels_suite(),
    "montecarlo": montecarlo_suite,
}


def run_suite(name: str, seed: int, replications: int = 20000) -> list[CheckResult]:
    runner = SUITES[name]
    return runner(seed, replications)
