"""Reliability of a serial circulation plan from small per-leg samples.

Estimates the probability that every leg of a k-leg plan fits its slack
time, by resampling from small observed samples of delays and service
times, and computes the exact variance of that estimator analytically.

No module of the package imports numpy at import time. The kernels, the
quadrature, the variance and the sweep run in plain Python floats and
integers; only the resampler and the oracles, behind ``estimate`` and
``verify``, load numpy when they run.
"""

from .cli import load_scenario
from .distributions import (
    leg_reliability_exponential,
    leg_reliability_plugin,
    leg_reliability_quadrature,
)
from .errors import (
    CircrelError,
    EnumerationTooLarge,
    MissingSamples,
    NegativeVariance,
    NumericError,
    ParseError,
    QuadratureNonConvergence,
    ValidationError,
)
from .oracles import enumerate_exact, simulate_pipeline_variance
from .plan import (
    CirculationPlan,
    ExponentialLegModel,
    Leg,
    LegSamples,
    Scenario,
    plan_reliability,
    validate_scenario,
)
from .resampler import ResamplingConfig, realization_stream, resample_estimate
from .variance import (
    estimator_variance,
    leg_kernels,
    mixed_moment_mu11,
    omega_probability,
    variance_pipeline,
)

__all__ = [
    "load_scenario",
    "leg_reliability_exponential", "leg_reliability_plugin", "leg_reliability_quadrature",
    "CircrelError", "EnumerationTooLarge", "MissingSamples", "NegativeVariance",
    "NumericError", "ParseError", "QuadratureNonConvergence", "ValidationError",
    "enumerate_exact", "simulate_pipeline_variance",
    "CirculationPlan", "ExponentialLegModel", "Leg", "LegSamples", "Scenario",
    "plan_reliability", "validate_scenario",
    "ResamplingConfig", "realization_stream", "resample_estimate",
    "estimator_variance", "leg_kernels", "mixed_moment_mu11", "omega_probability",
    "variance_pipeline",
]
__version__ = "0.1.0"
