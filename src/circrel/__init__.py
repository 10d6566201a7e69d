"""Reliability of a serial circulation plan from small per-leg samples.

Estimates the probability that every leg of a k-leg plan fits its slack
time, by resampling from small observed samples of delays and service
times, and computes the exact variance of that estimator analytically.
"""

from .distributions import (
    Exponential,
    leg_reliability_exponential,
    leg_reliability_plugin,
    leg_reliability_quadrature,
)
from .errors import (
    CircrelError,
    EmptyPlan,
    EmptySample,
    EnumerationTooLarge,
    IndexOutOfRange,
    InvalidSampleValue,
    LegCountMismatch,
    MissingSamples,
    NegativeSlack,
    NegativeTime,
    NegativeVariance,
    NonpositiveRate,
    NumericError,
    OutOfRangeProbability,
    ParseError,
    QuadratureNonConvergence,
    UnknownKind,
    ValidationError,
)
from .oracles import (
    ExactOracleResult,
    MonteCarloResult,
    enumerate_exact,
    simulate_pipeline_variance,
)
from .plan import (
    CirculationPlan,
    ExponentialLegModel,
    Leg,
    LegSamples,
    Scenario,
    plan_reliability,
    validate_scenario,
)
from .resampler import (
    EstimateReport,
    ResamplingConfig,
    realization_stream,
    resample_estimate,
)
from .variance import (
    KernelEvaluation,
    LegKernels,
    VarianceReport,
    estimator_variance,
    leg_kernels,
    mixed_moment_mu11,
    omega_probability,
    variance_pipeline,
)
from .cli import load_scenario

__version__ = "0.1.0"
