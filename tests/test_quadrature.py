import math

import numpy as np
import pytest

from circrel.errors import QuadratureNonConvergence
from circrel import quadrature
from circrel.quadrature import adaptive_quadrature


def test_polynomial_exact():
    res = adaptive_quadrature(lambda xs: [x**2 for x in xs], 0.0, 1.0)
    assert abs(res.value - 1.0 / 3.0) < 1e-12
    assert res.evaluations >= 15


def test_exponential_tail():
    res = adaptive_quadrature(lambda xs: [math.exp(-x) for x in xs], 0.0, 10.0)
    assert abs(res.value - (1.0 - math.exp(-10.0))) < 1e-10


def test_empty_interval_is_zero():
    res = adaptive_quadrature(lambda xs: xs, 1.0, 1.0)
    assert res.value == 0.0 and res.evaluations == 0


def test_oscillatory_converges():
    res = adaptive_quadrature(lambda xs: [math.sin(50.0 * x) for x in xs], 0.0, math.pi)
    exact = (1.0 - math.cos(50.0 * math.pi)) / 50.0
    assert abs(res.value - exact) < 1e-9


def test_budget_exhaustion_reports_progress(monkeypatch):
    # A step cannot be resolved in 3 panels.
    step = lambda xs: [float(v >= 1.0 / 3.0) for v in xs]
    monkeypatch.setattr(quadrature, "MAX_EVALS", 75)
    with pytest.raises(QuadratureNonConvergence) as info:
        adaptive_quadrature(step, 0.0, 1.0)
    err = info.value
    assert err.evaluations <= 75
    assert err.achieved_error > 0.0
    assert 0.0 < err.value < 1.0


def test_rule_constants_are_full_precision():
    # Rounded constants break these first: Kronrod weights printed to 15
    # digits sum to 2 - 6.0e-15.
    kronrod = list(zip(quadrature._NODES, quadrature._WEIGHTS_K))
    gauss = list(zip(quadrature._NODES[1::2], quadrature._WEIGHTS_G))
    assert abs(math.fsum(quadrature._WEIGHTS_K) - 2.0) <= 1e-16
    assert abs(math.fsum(quadrature._WEIGHTS_G) - 2.0) <= 1e-16
    # Exact for x**k: K21 up to degree 31, the embedded G10 up to degree 19.
    for pairs, degree in ((kronrod, 31), (gauss, 19)):
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            got = math.fsum(w * x**k for x, w in pairs)
            assert abs(got - exact) <= 1e-15 * (exact or 1.0), (degree, k)
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert np.allclose(quadrature._NODES[1::2], nodes, rtol=0, atol=1e-15)
    assert np.allclose(quadrature._WEIGHTS_G, weights, rtol=0, atol=1e-15)
