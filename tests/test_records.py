"""Record types: immutable named tuples that compare, hash and serialize by field.

Every record the package returns or takes is a ``collections.namedtuple``
subclass without an instance dict. Its fields keep their names and order,
so ``_asdict`` gives the JSON keys the CLI prints, and ``ResamplingConfig``
checks its count and seed on every copy, ``_replace`` included.
"""

import pytest

from circrel import ResamplingConfig, ValidationError
from circrel.oracles import ExactOracleResult, MonteCarloResult
from circrel.plan import CirculationPlan, ExponentialLegModel, Leg, LegSamples, Scenario
from circrel.quadrature import QuadratureResult
from circrel.resampler import EstimateReport
from circrel.variance import KernelEvaluation, LegKernels, VarianceReport, _KernelTable
from circrel.verify import CheckResult

_RATES = ExponentialLegModel(0.05, 0.02)
_KERNEL = KernelEvaluation(0.5, "closed_form")
_KERNELS = LegKernels(_KERNEL, KernelEvaluation(0.25, "closed_form"), _KERNEL, _KERNEL)

# Each record type, its fields in order, and the values of one instance.
RECORDS = [
    (CirculationPlan, ("intervals",), ((140.0, 150.0),)),
    (LegSamples, ("delays", "services"), ((1.0, 3.0), (2.0,))),
    (ExponentialLegModel, ("delay_rate", "service_rate"), (0.05, 0.02)),
    (Leg, ("samples", "rates"), (None, _RATES)),
    (Scenario, ("plan", "legs"), (CirculationPlan((140.0,)), (Leg(rates=_RATES),))),
    (ResamplingConfig, ("r", "seed"), (50, 7)),
    (EstimateReport, ("theta_star", "r", "seed", "success_count"), (0.5, 50, 7, 25)),
    (KernelEvaluation, ("value", "method", "near_singular"), (0.5, "plugin", False)),
    (LegKernels, ("both", "neither", "service_only", "delay_only"),
     (_KERNEL, _KERNEL, _KERNEL, _KERNEL)),
    (_KernelTable, ("method", "both", "service_only", "delay_only"),
     ("plugin", (0.5,), (0.25,), (0.125,))),
    (VarianceReport,
     ("theta", "mu11", "r", "variance", "kernel_mode", "method", "per_leg_h"),
     (0.5, 0.3, 50, 0.01, "closed_form", "factorized", (_KERNELS,))),
    (ExactOracleResult, ("expected_theta_star", "exact_variance", "term_count"), (0.5, 0.01, 64)),
    (MonteCarloResult,
     ("mean_theta_star", "empirical_variance", "replications", "standard_error_of_variance"),
     (0.5, 0.01, 2000, 0.001)),
    (CheckResult, ("name", "passed", "observed", "bound"), ("gap", True, 1e-13, 1e-12)),
    (QuadratureResult, ("value", "error_estimate", "evaluations"), (0.5, 1e-12, 21)),
]


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, values):
    record = cls(*values)
    assert cls._fields == fields
    assert not hasattr(record, "__dict__")
    for name in (fields[0], "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    twin = cls(**dict(zip(fields, values)))
    assert twin == record and hash(twin) == hash(record)
    assert record._replace() == record
    assert list(record._asdict()) == list(fields)
    assert tuple(record._asdict().values()) == values


def test_repr_and_resampling_config_rules():
    assert (repr(Leg(rates=ExponentialLegModel(0.05, 0.02)))
            == "Leg(samples=None, rates=ExponentialLegModel(delay_rate=0.05, service_rate=0.02))")
    assert VarianceReport(0.5, 0.3, 50, 0.01).mu2 == 0.5
    config = ResamplingConfig(50, 1.0)
    assert config.seed == 1 and type(config.seed) is int
    assert config._replace(seed=3) == ResamplingConfig(50, 3)
    with pytest.raises(ValidationError, match="^realization count 0 must be >= 1$"):
        ResamplingConfig(50)._replace(r=0)
    with pytest.raises(ValidationError, match="^seed -1 must fit in 64 bits$"):
        ResamplingConfig._make((50, -1))
