"""Self-check suites wiring the oracles against the analytic pipeline.

Three suites, mirroring the three trust boundaries:

* ``exact``    -- exhaustive enumeration vs the plug-in analytic variance on
                  tiny fixtures (tolerance 1e-12);
* ``kernels``  -- exponential closed-form kernels vs adaptive quadrature on a
                  rate/time grid, and on and just off the lines b = a,
                  b = 2a and a = 2b where two kernel rates coincide (1e-8);
* ``montecarlo`` -- joint-law simulation vs the analytic variance within
                  statistical error.

Each check reports the observed discrepancy and the bound it was held to.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ValidationError
from .oracles import enumerate_exact, simulate_pipeline_variance
from .plan import (CirculationPlan, ExponentialLegModel, Leg, LegSamples, Scenario,
                   _check_seed)
from .resampler import ResamplingConfig
from .variance import leg_kernels, variance_pipeline

SUITES = ("exact", "kernels", "montecarlo")  # in the order the CLI lists them


class CheckResult(namedtuple("CheckResult", "name passed observed bound")):
    __slots__ = ()


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
        for r in (1, 2, 3):
            analytic = variance_pipeline(scenario, r=r, mode="plugin")
            config = ResamplingConfig(r=r)
            fixed = enumerate_exact(scenario, config)
            results.append(_check(
                f"{name}/r={r}/unbiased_vs_plugin",
                abs(fixed.expected_theta_star - analytic.theta),
                tolerance,
            ))
            random_draw = enumerate_exact(scenario, config, samples_random=True)
            results.append(_check(
                f"{name}/r={r}/variance_vs_analytic",
                abs(random_draw.exact_variance - analytic.variance),
                tolerance,
            ))
    return results


_GRID_RATES = (0.01, 0.02, 0.05, 0.1, 0.2)
_GRID_TIMES = (2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 400.0)


def _worst_closed_vs_quadrature(legs, times) -> tuple[float, int]:
    """Largest closed-form vs quadrature kernel gap, and the points compared:
    R, R**2, S and D at each slack of each leg."""
    worst = 0.0
    compared = 0
    for leg in legs:
        closed = leg_kernels(leg, times, "closed_form")
        quad = leg_kernels(leg, times, "quadrature")
        for cr, cs, cd, qr, qs, qd in zip(closed.both, closed.service_only, closed.delay_only,
                                          quad.both, quad.service_only, quad.delay_only):
            compared += 4
            worst = max(worst, abs(cr - qr), abs(cr * cr - qr * qr), abs(cs - qs), abs(cd - qd))
    return worst, compared


def kernels_suite() -> list[CheckResult]:
    """Closed-form kernels vs quadrature on a rate grid and on the tube lines."""
    grid = [Leg(rates=ExponentialLegModel(a, b))
            for a in _GRID_RATES for b in _GRID_RATES]
    worst, compared = _worst_closed_vs_quadrature(grid, _GRID_TIMES)
    results = [_check(f"grid_closed_vs_quadrature[{compared} points]", worst, 1e-8)]

    # On b = a, b = 2a and a = 2b two of a kernel's rates coincide; step
    # 1e-7, 1e-6 and 1e-5 relative off each line to either side as well.
    tube = [
        Leg(rates=ExponentialLegModel(base, line * base * (1.0 + offset)))
        for base in (0.02, 0.1)
        for line in (1.0, 2.0, 0.5)
        for offset in (0.0, 1e-7, -1e-7, 1e-6, -1e-6, 1e-5, -1e-5)
    ]
    worst, _ = _worst_closed_vs_quadrature(tube, (10.0, 50.0, 200.0))
    results.append(_check("tube_lines_closed_vs_quadrature", worst, 1e-8))
    return results


def montecarlo_suite(seed: int, replications: int = 20000) -> list[CheckResult]:
    """Joint-law simulation vs analytic variance on a scaled configuration."""
    scenario = Scenario(
        plan=CirculationPlan((140.0, 140.0)),
        legs=tuple(Leg(rates=ExponentialLegModel(0.05, 0.02)) for _ in range(2)),
    )
    sizes = [5, 5]
    r = 10
    analytic = variance_pipeline(scenario, r=r, sizes_x=sizes, sizes_y=sizes)
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


def run_suite(name: str, seed: int, replications: int = 20000) -> list[CheckResult]:
    if name not in SUITES:
        raise ValidationError(f"unknown suite {name!r}")
    _check_seed(seed)  # every suite rejects a bad seed
    if name == "montecarlo":
        return montecarlo_suite(seed, replications)
    return exact_suite() if name == "exact" else kernels_suite()
