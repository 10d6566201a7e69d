"""Reliability of a serial circulation plan from small per-leg samples.

Estimates the probability that every leg of a k-leg plan fits its slack
time, by resampling from small observed samples of delays and service
times, and computes the exact variance of that estimator analytically.

The public names below load their module on first use, so importing the
package (or ``circrel.cli`` for a closed-form call) does not load numpy.
"""

import importlib

_EXPORTS = {
    "distributions": (
        "Exponential", "leg_reliability_exponential", "leg_reliability_plugin",
        "leg_reliability_quadrature",
    ),
    "errors": (
        "CircrelError", "EmptyPlan", "EmptySample", "EnumerationTooLarge",
        "IndexOutOfRange", "InvalidSampleValue", "LegCountMismatch", "MissingSamples",
        "NegativeSlack", "NegativeTime", "NegativeVariance", "NonpositiveRate",
        "NumericError", "OutOfRangeProbability", "ParseError",
        "QuadratureNonConvergence", "UnknownKind", "ValidationError",
    ),
    "oracles": (
        "ExactOracleResult", "MonteCarloResult", "enumerate_exact",
        "simulate_pipeline_variance",
    ),
    "plan": (
        "CirculationPlan", "ExponentialLegModel", "Leg", "LegSamples", "Scenario",
        "plan_reliability", "validate_scenario",
    ),
    "resampler": (
        "EstimateReport", "ResamplingConfig", "realization_stream", "resample_estimate",
    ),
    "variance": (
        "KernelEvaluation", "LegKernels", "VarianceReport", "estimator_variance",
        "leg_kernels", "mixed_moment_mu11", "omega_probability", "variance_pipeline",
    ),
    "cli": ("load_scenario",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
