import math

import numpy as np
import pytest

from circrel.errors import QuadratureNonConvergence
from circrel import quadrature
from circrel.quadrature import adaptive_quadrature


def test_polynomial_exact():
    res = adaptive_quadrature(lambda x: x**2, 0.0, 1.0)
    assert abs(res.value - 1.0 / 3.0) < 1e-12
    assert res.evaluations >= 15


def test_exponential_tail():
    res = adaptive_quadrature(lambda x: np.exp(-x), 0.0, 10.0)
    assert abs(res.value - (1.0 - math.exp(-10.0))) < 1e-10


def test_empty_interval_is_zero():
    res = adaptive_quadrature(lambda x: x, 1.0, 1.0)
    assert res.value == 0.0 and res.evaluations == 0


def test_oscillatory_converges():
    res = adaptive_quadrature(lambda x: np.sin(50.0 * x), 0.0, math.pi)
    exact = (1.0 - math.cos(50.0 * math.pi)) / 50.0
    assert abs(res.value - exact) < 1e-9


def test_budget_exhaustion_reports_progress(monkeypatch):
    # A step cannot be resolved in 5 panels.
    step = lambda x: (x >= 1.0 / 3.0).astype(float)
    monkeypatch.setattr(quadrature, "MAX_EVALS", 75)
    with pytest.raises(QuadratureNonConvergence) as info:
        adaptive_quadrature(step, 0.0, 1.0)
    err = info.value
    assert err.evaluations <= 75
    assert err.achieved_error > 0.0
    assert 0.0 < err.value < 1.0
