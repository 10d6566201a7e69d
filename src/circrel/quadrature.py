"""Adaptive Gauss-Kronrod quadrature over a finite interval.

Workhorse for the Stieltjes integrals behind the exponential reliability
kernels: the integrands are density-weighted products of exponential CDFs on
[0, t], smooth throughout. Sample legs never come here; their kernels are
exact pair counts.

The 10-point Gauss rule embedded in the 21-point Kronrod rule (QUADPACK's
qk21) gives a value and an error estimate per panel; the panel with the
largest error is bisected until the summed error meets the tolerance or the
evaluation budget runs out. The tolerance is max(REL_TOL * |value|, ABS_TOL)
and the budget MAX_EVALS integrand evaluations; every caller integrates to
the same three constants. The rule runs in plain Python floats: an integrand
takes a list of 21 nodes and returns a list of values.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush, heappop
from operator import mul
from typing import Callable

from .errors import QuadratureNonConvergence

# QUADPACK's qk21 constants to full double precision (Piessens et al.,
# QUADPACK, Springer 1983): the nonnegative Kronrod-21 nodes on [-1, 1] from
# the largest, their Kronrod weights, and the Gauss-10 weights of the nodes
# at odd positions. The rule mirrors them, so it is symmetric to the bit.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# Ascending nodes with their Kronrod weights, and the Gauss weights of the
# nodes at odd positions.
_NODES = tuple(-x for x in _XGK[:-1]) + _XGK[::-1]
_WEIGHTS_K = _WGK + _WGK[-2::-1]
_WEIGHTS_G = _WG + _WG[::-1]

REL_TOL = 1e-9
ABS_TOL = 1e-16
MAX_EVALS = 1_000_000


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _panel(f: Callable[[list[float]], list[float]], a: float, b: float) -> tuple[float, float]:
    """Kronrod value and error estimate for one panel."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = f([mid + half * node for node in _NODES])
    value = half * sum(map(mul, _WEIGHTS_K, y))
    gauss = half * sum(map(mul, _WEIGHTS_G, y[1::2]))
    raw = abs(value - gauss)
    # Sharpened estimate for smooth integrands, never above the raw gap.
    return value, min(raw, (200.0 * raw) ** 1.5 if raw > 0.0 else 0.0)


def adaptive_quadrature(
    f: Callable[[list[float]], list[float]], a: float, b: float
) -> QuadratureResult:
    """Integrate ``f`` over [a, b]; ``f`` maps a list of nodes to a list of values.

    Raises QuadratureNonConvergence when MAX_EVALS evaluations run out
    before the error estimate drops below max(REL_TOL * |value|, ABS_TOL).
    """
    if b <= a:
        return QuadratureResult(0.0, 0.0, 0)

    total, total_err = _panel(f, a, b)
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
        value_l, err_l = _panel(f, left, mid)
        value_r, err_r = _panel(f, mid, right)
        evaluations += 2 * len(_NODES)
        total += value_l + value_r - value
        total_err += err_l + err_r + neg_err
        heappush(heap, (-err_l, left, mid, value_l))
        heappush(heap, (-err_r, mid, right, value_r))

    return QuadratureResult(total, total_err, evaluations)
