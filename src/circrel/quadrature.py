"""Adaptive Gauss-Kronrod quadrature over a finite interval.

Workhorse for the Stieltjes integrals behind the exponential reliability
kernels: the integrands are density-weighted products of exponential CDFs on
[0, t], smooth throughout. Sample legs never come here; their kernels are
exact pair counts.

The 7-point Gauss rule embedded in the 15-point Kronrod rule gives a value
and an error estimate per panel; the panel with the largest error is bisected
until the summed error meets the tolerance or the evaluation budget runs out.
The tolerance is max(REL_TOL * |value|, ABS_TOL) and the budget MAX_EVALS
integrand evaluations; every caller integrates to the same three constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from heapq import heappush, heappop
from typing import TYPE_CHECKING, Callable

from .errors import QuadratureNonConvergence

if TYPE_CHECKING:
    import numpy as np

# Kronrod-15 nodes on [-1, 1] with Kronrod weights; the odd positions carry
# the embedded Gauss-7 weights, zero elsewhere.
_NODES = (
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
)
_WEIGHTS_K = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
)
_WEIGHTS_G = (
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0, 0.381830050505119,
    0.0, 0.279705391489277, 0.0, 0.129484966168870, 0.0,
)

REL_TOL = 1e-9
ABS_TOL = 1e-16
MAX_EVALS = 1_000_000


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


@cache
def _rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes and both weight sets as arrays, built on first use."""
    import numpy as np

    return np.array(_NODES), np.array(_WEIGHTS_K), np.array(_WEIGHTS_G)


def _panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
           rule: tuple[np.ndarray, np.ndarray, np.ndarray]) -> tuple[float, float]:
    """Kronrod value and error estimate for one panel."""
    nodes, weights_k, weights_g = rule
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * nodes
    y = f(x)
    value = half * float(weights_k @ y)
    gauss = half * float(weights_g @ y)
    raw = abs(value - gauss)
    # Sharpened estimate for smooth integrands, never above the raw gap.
    return value, min(raw, (200.0 * raw) ** 1.5 if raw > 0.0 else 0.0)


def adaptive_quadrature(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float
) -> QuadratureResult:
    """Integrate a vectorized ``f`` over [a, b].

    Raises QuadratureNonConvergence when MAX_EVALS evaluations run out
    before the error estimate drops below max(REL_TOL * |value|, ABS_TOL).
    """
    if b <= a:
        return QuadratureResult(0.0, 0.0, 0)

    rule = _rule()
    total, total_err = _panel(f, a, b, rule)
    evaluations = len(_NODES)
    heap = [(-total_err, a, b, total)]  # (-err, left, right, value)

    while total_err > max(REL_TOL * abs(total), ABS_TOL):
        if evaluations + 2 * len(_NODES) > MAX_EVALS:
            raise QuadratureNonConvergence(total, total_err, evaluations)
        neg_err, left, right, value = heappop(heap)
        mid = 0.5 * (left + right)
        if mid <= left or mid >= right:
            # Panel narrowed to machine resolution; cannot refine further.
            heappush(heap, (neg_err, left, right, value))
            raise QuadratureNonConvergence(total, total_err, evaluations)
        value_l, err_l = _panel(f, left, mid, rule)
        value_r, err_r = _panel(f, mid, right, rule)
        evaluations += 2 * len(_NODES)
        total += value_l + value_r - value
        total_err += err_l + err_r + neg_err
        heappush(heap, (-err_l, left, mid, value_l))
        heappush(heap, (-err_r, mid, right, value_r))

    return QuadratureResult(total, total_err, evaluations)
