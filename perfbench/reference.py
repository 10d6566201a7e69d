"""Independent references for every output the benchmark times.

Nothing here imports ``circrel``. Numbers are read as they are written in
the scenario files (decimal strings, exact as ``Fraction``), so a reference
states what the operator's data says, not what a float rounding of it says.

* plug-in legs: exact ``Fraction`` sums under the fit rule x + y <= t;
* exponential legs: mpmath quadrature of the defining integrals
  R = E[F(t - Y)], S_F = E[F(t - Y)^2] and S_G = E[G(t - X)^2];
* estimates: the exact plug-in success probability, and a realization by
  realization replay of the documented Philox stream layout.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

# Working precision of the mpmath reference, in decimal digits. The far
# tail audit point (true variance 2e-18 out of terms near 1) needs about 18
# digits of cancellation on top of the 10 the comparison asks for.
MP_DIGITS = 40

# Relative agreement asked of theta, mu11 and the variance.
REL_TOL = 1e-9

# Slack for the order properties (theta(1-theta)/r <= Var <= theta(1-theta),
# theta nondecreasing in t): a few units of double rounding.
ROUNDING = 1e-13


def read_scenario(path: str) -> dict:
    """Scenario JSON with every number kept as an exact decimal Fraction."""
    with open(path) as fh:
        return json.load(fh, parse_float=Fraction, parse_int=Fraction)


@dataclass(frozen=True)
class Moments:
    """theta, mu11 and the estimator variance, exact or high precision."""

    theta: object
    mu11: object
    variance: object


def _combine(kernels, sizes, r):
    """theta, mu11, Var from per-leg (R, S_F, S_G) and (n_x, n_y), exact for
    Fraction kernels and at the working precision for mpmath ones.

    S_F = E[F(t - Y)^2] is the kernel when only the service draw is shared,
    S_G = E[G(t - X)^2] when only the delay draw is; each index coincides
    with probability 1/n.
    """
    theta = 1
    mu11 = 1
    for (R, SF, SG), (nx, ny) in zip(kernels, sizes):
        px = Fraction(1, nx)
        py = Fraction(1, ny)
        theta *= R
        mu11 *= (px * py * R + (1 - px) * (1 - py) * R * R
                 + (1 - px) * py * SF + px * (1 - py) * SG)
    variance = theta / r + (r - 1) * mu11 / r - theta * theta
    return Moments(theta, mu11, variance)


# --- plug-in (sample) legs -------------------------------------------------

def _as_integers(*groups):
    """Scale groups of Fractions to integers over one common denominator."""
    den = 1
    for group in groups:
        for v in group:
            den = den * v.denominator // math.gcd(den, v.denominator)
    return [[int(v * den) for v in group] for group in groups]


def plugin_leg_kernels(delays, services, t):
    """Exact (R, S_F, S_G) of one empirical leg at slack t.

    With c_y = #{x : x + y <= t}: R = sum c_y / (n_x n_y) and
    S_F = sum c_y^2 / (n_x^2 n_y); S_G likewise with the roles swapped.
    """
    xs, ys, (ti,) = _as_integers(delays, services, [t])
    xs.sort()
    ys.sort()
    nx, ny = len(xs), len(ys)
    c_y = [bisect_right(xs, ti - y) for y in ys]
    d_x = [bisect_right(ys, ti - x) for x in xs]
    R = Fraction(sum(c_y), nx * ny)
    SF = Fraction(sum(c * c for c in c_y), nx * nx * ny)
    SG = Fraction(sum(d * d for d in d_x), ny * ny * nx)
    return R, SF, SG


def sample_legs(doc):
    """(delays, services) per leg of a samples scenario."""
    return [(leg["delay"]["samples"], leg["service"]["samples"]) for leg in doc["legs"]]


def plugin_moments(doc, intervals, r) -> Moments:
    """Exact moments with leg i held to slack ``intervals[i]``."""
    legs = sample_legs(doc)
    kernels = [plugin_leg_kernels(x, y, t) for (x, y), t in zip(legs, intervals)]
    sizes = [(len(x), len(y)) for x, y in legs]
    return _combine(kernels, sizes, r)


def plugin_theta(doc, intervals) -> Fraction:
    """Exact plug-in success probability: the product of the legs' R."""
    return math.prod((plugin_leg_kernels(x, y, t)[0]
                      for (x, y), t in zip(sample_legs(doc), intervals)), start=Fraction(1))


# --- exponential legs ------------------------------------------------------

def _mpf(value):
    value = Fraction(value)
    return mpmath.mpf(value.numerator) / value.denominator


class ExponentialReference:
    """mpmath quadrature of the defining integrals, cached per (a, b, t)."""

    def __init__(self):
        self._cache = {}

    def leg_kernels(self, a, b, t):
        key = (Fraction(a), Fraction(b), Fraction(t))
        if key not in self._cache:
            with mpmath.workdps(MP_DIGITS):
                self._cache[key] = self._integrate(*map(_mpf, key))
        return self._cache[key]

    @staticmethod
    def _integrate(a, b, t):
        F = lambda u: -mpmath.expm1(-a * u)  # delay CDF
        G = lambda u: -mpmath.expm1(-b * u)  # service CDF
        f = lambda x: a * mpmath.exp(-a * x)
        g = lambda y: b * mpmath.exp(-b * y)
        R = mpmath.quad(lambda y: F(t - y) * g(y), [0, t])
        SF = mpmath.quad(lambda y: F(t - y) ** 2 * g(y), [0, t])
        SG = mpmath.quad(lambda x: G(t - x) ** 2 * f(x), [0, t])
        return R, SF, SG

    def moments(self, doc, t, n, r) -> Moments:
        rates = [(leg["delay"]["exponential"]["rate"], leg["service"]["exponential"]["rate"])
                 for leg in doc["legs"]]
        with mpmath.workdps(MP_DIGITS):
            kernels = [self.leg_kernels(a, b, t) for a, b in rates]
            return _combine(kernels, [(n, n)] * len(rates), r)


# --- comparisons -----------------------------------------------------------

def relative_errors(reported: dict, exact: Moments) -> dict:
    """Relative error of each reported moment against the reference."""
    out = {}
    with mpmath.workdps(MP_DIGITS):
        for name in ("theta", "mu11", "variance"):
            ref = getattr(exact, name)
            ref = _mpf(ref) if isinstance(ref, Fraction) else mpmath.mpf(ref)
            got = mpmath.mpf(reported[name])
            if ref == 0:
                out[name] = 0.0 if got == 0 else math.inf
            else:
                out[name] = float(abs((got - ref) / ref))
    return out


def mismatches(reported: dict, exact: Moments) -> list[str]:
    """Names of moments whose relative error exceeds REL_TOL."""
    return [name for name, err in relative_errors(reported, exact).items()
            if not err <= REL_TOL]


def order_faults(theta: float, variance: float, r: int) -> list[str]:
    """Breaches of theta(1 - theta)/r <= Var <= theta(1 - theta)."""
    faults = []
    if not 0.0 <= theta <= 1.0:
        faults.append("theta outside [0, 1]")
    spread = theta * (1.0 - theta)
    if variance < spread / r * (1.0 - ROUNDING) - 1e-300:
        faults.append("variance below theta(1-theta)/r")
    if variance > spread * (1.0 + ROUNDING):
        faults.append("variance above theta(1-theta)")
    return faults


# --- estimate --------------------------------------------------------------

def within_five_sigma(theta_star: float, theta: Fraction, r: int) -> bool:
    """|theta* - theta| <= 5 sqrt(theta (1 - theta) / r)."""
    sigma = math.sqrt(float(theta * (1 - theta)) / r)
    return abs(Fraction(theta_star) - theta) <= Fraction(5 * sigma)


def replay_success_count(doc, intervals, seed: int, r: int) -> int:
    """Success count of ``r`` realizations replayed from the stream layout.

    Realization l draws from Philox keyed by ``seed`` with counter l * 2**128:
    one vectorized integer draw over the delay sample sizes, then one over
    the service sample sizes. The leg fits when x + y <= t exactly.
    """
    legs = sample_legs(doc)
    fits = []
    for (delays, services), t in zip(legs, intervals):
        xs, ys, (ti,) = _as_integers(delays, services, [t])
        fits.append(np.array([[x + y <= ti for y in ys] for x in xs]))
    sizes_x = np.array([len(x) for x, _ in legs])
    sizes_y = np.array([len(y) for _, y in legs])
    legs_index = range(len(legs))
    count = 0
    for l in range(r):
        stream = np.random.Generator(np.random.Philox(key=seed, counter=l << 128))
        jx = stream.integers(0, sizes_x)
        jy = stream.integers(0, sizes_y)
        count += all(fits[i][jx[i], jy[i]] for i in legs_index)
    return count
