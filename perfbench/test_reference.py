"""Tests of the benchmark's own references (run: python -m pytest perfbench).

The references must be right before they can judge the program, so each is
checked here against something computed another way: the printed reference
sweep, brute-force enumeration, or a closed form in high precision.
"""

import csv
import itertools
import os
from fractions import Fraction

import pytest

mpmath = pytest.importorskip("mpmath")

import reference as ref  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRINTED = os.path.join(ROOT, "tests", "data", "reference_variances.csv")


def _exponential_doc(rates, t):
    return {"intervals": [Fraction(t)] * len(rates),
            "legs": [{"delay": {"exponential": {"rate": Fraction(a)}},
                      "service": {"exponential": {"rate": Fraction(b)}}} for a, b in rates]}


def _samples_doc(legs, intervals):
    return {"intervals": [Fraction(t) for t in intervals],
            "legs": [{"delay": {"samples": [Fraction(v) for v in x]},
                      "service": {"samples": [Fraction(v) for v in y]}} for x, y in legs]}


@pytest.mark.skipif(not os.path.exists(PRINTED), reason="printed reference sweep not present")
def test_mpmath_reference_reproduces_printed_sweep():
    """k=5, rates (0.05, 0.02), n=20, r=50: within the larger of 10% and
    one unit in the last printed digit, the file's stated tolerance."""
    exponential = ref.ExponentialReference()
    with open(PRINTED) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(rows) == 8
    for row in rows:
        printed = row["variance_printed"].replace(",", ".")
        mantissa = printed.split("e")[0]
        decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
        exponent = int(printed.split("e")[1]) if "e" in printed else 0
        unit = 10.0 ** (exponent - decimals)
        t = Fraction(row["t"])
        exact = float(exponential.moments(_exponential_doc([("0.05", "0.02")] * 5, t),
                                          t, 20, 50).variance)
        value = float(printed)
        assert abs(exact - value) <= max(0.1 * value, unit), (row, exact)


def _brute_force_variance(legs, intervals, r):
    """Var of the r-realization estimate over random samples and index draws.

    Each sample slot is redrawn uniformly from the observed values, then
    each realization picks one slot of every sample uniformly; every
    outcome is enumerated with its exact probability.
    """
    def leg_law(x, y, t):
        # distribution of the leg's success bits over the r realizations
        law = {}
        nx, ny = len(x), len(y)
        for xs in itertools.product(x, repeat=nx):
            for ys in itertools.product(y, repeat=ny):
                for picks in itertools.product(range(nx * ny), repeat=r):
                    bits = tuple(xs[p // ny] + ys[p % ny] <= t for p in picks)
                    law[bits] = law.get(bits, 0) + 1
        total = sum(law.values())
        return {bits: Fraction(c, total) for bits, c in law.items()}

    joint = {(True,) * r: Fraction(1)}
    for (x, y), t in zip(legs, intervals):
        law = leg_law([Fraction(v) for v in x], [Fraction(v) for v in y], Fraction(t))
        combined = {}
        for b1, p1 in joint.items():
            for b2, p2 in law.items():
                key = tuple(u and v for u, v in zip(b1, b2))
                combined[key] = combined.get(key, 0) + p1 * p2
        joint = combined
    mean = sum(p * Fraction(sum(b), r) for b, p in joint.items())
    second = sum(p * Fraction(sum(b), r) ** 2 for b, p in joint.items())
    return second - mean * mean


@pytest.mark.parametrize("legs, intervals, r", [
    ([(["0.1", "0.3"], ["0.4", "0.2"])], ["0.5"], 2),  # the decimal-tie audit case
    ([(["1", "3"], ["1", "3"])], ["4"], 3),
    ([(["1", "3", "5"], ["0.5", "2"]), (["2", "6"], ["1", "3"])], ["4", "7"], 2),
])
def test_plugin_reference_matches_brute_force(legs, intervals, r):
    doc = _samples_doc(legs, intervals)
    exact = ref.plugin_moments(doc, doc["intervals"], r)
    assert exact.variance == _brute_force_variance(legs, intervals, r)


def test_decimal_tie_exact_value():
    doc = _samples_doc([(["0.1", "0.3"], ["0.4", "0.2"])], ["0.5"])
    assert ref.plugin_moments(doc, doc["intervals"], 2).variance == Fraction("0.1328125")


@pytest.mark.parametrize("a, b, t", [("0.05", "0.02", "140"), ("0.03", "0.06", "55.5"),
                                     ("0.041", "0.041", "80"), ("0.05", "0.02", "2000")])
def test_exponential_reliability_matches_closed_form(a, b, t):
    """The quadrature R against the hypoexponential (or Erlang) CDF."""
    R, _, _ = ref.ExponentialReference().leg_kernels(a, b, t)
    with mpmath.workdps(ref.MP_DIGITS):
        a, b, t = (mpmath.mpf(Fraction(v).numerator) / Fraction(v).denominator for v in (a, b, t))
        if a == b:
            closed = 1 - (1 + a * t) * mpmath.exp(-a * t)
        else:
            closed = 1 - (a * mpmath.exp(-b * t) - b * mpmath.exp(-a * t)) / (a - b)
        assert abs(1 - R - (1 - closed)) <= mpmath.mpf(10) ** -30 * (1 - closed)


def test_within_five_sigma_edges():
    assert ref.within_five_sigma(0.5, Fraction(1, 2), 100)
    assert not ref.within_five_sigma(0.76, Fraction(1, 2), 100)
    assert ref.within_five_sigma(1.0, Fraction(1), 10)
