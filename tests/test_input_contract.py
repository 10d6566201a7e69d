"""Input contract under structural damage to valid input files, and for
bad values passed to the library directly.

A valid scenario JSON and samples CSV are mutated (keys dropped, values
replaced by ones of the wrong JSON type, files truncated) and run through
``variance`` and ``estimate``. Whatever the damage, the CLI must end with a
documented exit code (0 success, 2 bad input, 3 missing data, 4 numeric
failure), print a ``circrel:`` message when it fails, and never raise.

Every public entry point of the library must refuse a bad rate, sample
value, sample family, slack or sample size with a ValidationError that
names the bad value, and, where a scenario is involved, its leg.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circrel import (
    CirculationPlan,
    ExponentialLegModel,
    Leg,
    LegSamples,
    ResamplingConfig,
    Scenario,
    ValidationError,
    enumerate_exact,
    leg_kernels,
    leg_reliability_exponential,
    leg_reliability_plugin,
    leg_reliability_quadrature,
    resample_estimate,
    simulate_pipeline_variance,
    variance_pipeline,
)
from circrel.cli import main

TWO_LEG = Path(__file__).resolve().parents[1] / "scenarios" / "two_leg_samples.json"

SCENARIO = {
    "label": "fuzz base",
    "time_unit": "minutes",
    "intervals": [40, 25.5],
    "legs": [
        {"delay": {"exponential": {"rate": 0.05}},
         "service": {"exponential": {"rate": 0.02}}},
        {"delay": {"samples": [3.1, 0.0, 11.4]},
         "service": {"samples": [14.0, 9.5]}},
    ],
}
CSV_ROWS = [
    ["leg", "kind", "value"],
    ["1", "delay", "2.5"],
    ["1", "delay", "7.0"],
    ["1", "service", "20.0"],
    ["2", "service", "12.1"],
]

JSON_VALUES = st.sampled_from([
    None, True, False, "", "x", "0.5", 0, -1, 1.5, 10**400,
    float("inf"), float("nan"), [], [1.0], {}, {"rate": 1}, {"samples": [1]},
])
CSV_CELLS = st.sampled_from([
    "", "x", "0", "3", "-1", "nan", "inf", "1e999", "9" * 30,
    "delay", "service", "leg",
])
EXIT_CODES = {0, 2, 3, 4}


def _paths(node, prefix=()):
    """Every position in a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def scenario_texts(draw):
    doc = copy.deepcopy(SCENARIO)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = copy.deepcopy(draw(JSON_VALUES))  # never share a drawn list or dict
        if not path:
            doc = value
            break
        parent = reduce(getitem, path[:-1], doc)
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    text = json.dumps(doc)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


@st.composite
def csv_texts(draw):
    rows = [list(row) for row in CSV_ROWS]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        action = draw(st.sampled_from(["drop", "replace", "extra"]))
        if action == "drop" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        elif action == "replace" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(CSV_CELLS)
        else:
            row.append(draw(CSV_CELLS))
    text = "".join(",".join(row) + "\n" for row in rows)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(scenario_texts(), st.one_of(st.none(), csv_texts()))
@settings(max_examples=200, deadline=None)
def test_damaged_input_ends_with_a_documented_exit(scenario_text, csv_text):
    with tempfile.TemporaryDirectory() as tmp:
        scenario_path = Path(tmp) / "scenario.json"
        scenario_path.write_text(scenario_text, encoding="utf-8")
        extra = []
        if csv_text is not None:
            csv_path = Path(tmp) / "obs.csv"
            csv_path.write_text(csv_text, encoding="utf-8")
            extra = ["--samples", str(csv_path)]
        for argv in (
            ["variance", str(scenario_path), *extra, "--mode", "quadrature"],
            ["estimate", str(scenario_path), *extra, "-r", "5"],
        ):
            code, out, err = _run(argv)
            assert code in EXIT_CODES, (argv, code, err)
            if code:
                assert out == ""
                assert err.startswith("circrel:"), err


def test_samples_csv_with_more_legs_than_intervals_is_bad_input():
    doc = copy.deepcopy(SCENARIO)
    del doc["intervals"][0]
    with tempfile.TemporaryDirectory() as tmp:
        scenario_path = Path(tmp) / "scenario.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
        csv_path = Path(tmp) / "obs.csv"
        csv_path.write_text("leg,kind,value\n1,delay,2.5\n1,service,2\n", encoding="utf-8")
        code, out, err = _run(["variance", str(scenario_path), "--samples", str(csv_path)])
    assert (code, out) == (2, "")
    assert "plan has 1 legs but 2 leg models supplied" in err, err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["verify", "--suite", "montecarlo", "--replications", "1000000000000"],
                 "1000000000000 replications exceed the cap of 10000000", id="replications-cap"),
    pytest.param(["estimate", str(TWO_LEG), "-r", "100000000000000000000"],
                 "realization count 100000000000000000000 must be below 2**63", id="r-over-int64"),
    pytest.param(["variance", "{tmp}/deep.json"], "maximum recursion depth", id="deep-json"),
])
def test_oversized_input_is_bad_input(tmp_path, argv, message):
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = _run([arg.format(tmp=tmp_path) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith("circrel:") and message in err, err


def test_byte_order_mark_reads_as_plain_utf8(tmp_path):
    # Spreadsheets save "CSV UTF-8" with a leading byte-order mark.
    scenario_text = json.dumps(SCENARIO)
    csv_text = "".join(",".join(row) + "\n" for row in CSV_ROWS)
    runs = []
    for bom in ("", "\ufeff"):
        scenario_path = tmp_path / f"scenario{len(bom)}.json"
        scenario_path.write_text(bom + scenario_text, encoding="utf-8")
        csv_path = tmp_path / f"obs{len(bom)}.csv"
        csv_path.write_text(bom + csv_text, encoding="utf-8")
        runs.append([
            _run([command, str(scenario_path), "--samples", str(csv_path), *flags])
            for command, flags in (("variance", ["--mode", "plugin"]), ("estimate", []))
        ])
    plain, marked = runs
    assert all(code == 0 for code, _, _ in plain), plain
    assert marked == plain


# Input kind and bad value; an empty sample family is the value None.
BAD_VALUES = {
    "rate-zero": ("rate", 0.0), "rate-negative": ("rate", -1.0),
    "rate-nan": ("rate", math.nan), "rate-inf": ("rate", math.inf),
    "sample-nan": ("sample", math.nan), "sample-negative": ("sample", -1.0),
    "sample-empty": ("sample", None),
    "slack-negative": ("slack", -1.0), "slack-nan": ("slack", math.nan),
    "slack-inf": ("slack", math.inf),
    "size-zero": ("size", 0), "size-fraction": ("size", 2.5),
}


@dataclass(frozen=True)
class Inputs:
    """Valid inputs with one bad value in place: the bad leg is leg 2 of the
    scenario and carries both samples and rates."""

    rates: ExponentialLegModel
    samples: LegSamples
    t: float
    sizes: tuple

    @classmethod
    def with_bad(cls, kind, value):
        rate = value if kind == "rate" else 0.05
        delays = () if value is None else (value if kind == "sample" else 3.0, 7.0)
        return cls(ExponentialLegModel(rate, 0.02), LegSamples(delays, (10.0, 20.0)),
                   value if kind == "slack" else 25.0, (3, value if kind == "size" else 3))

    @property
    def scenario(self):
        good = Leg(LegSamples((1.0, 2.0), (3.0,)), ExponentialLegModel(0.1, 0.2))
        return Scenario(CirculationPlan((30.0, self.t)),
                        (good, Leg(self.samples, self.rates)))


# Entry point: (input kinds it reads, whether it takes a scenario, call).
ENTRY_POINTS = {
    "leg_reliability_exponential": (
        {"rate", "slack"}, False, lambda c: leg_reliability_exponential(c.rates, c.t)),
    "leg_reliability_quadrature": (
        {"rate", "slack"}, False, lambda c: leg_reliability_quadrature(c.rates, c.t)),
    "leg_reliability_plugin": (
        {"sample", "slack"}, False, lambda c: leg_reliability_plugin(c.samples, c.t)),
    **{f"leg_kernels-{mode}-rate-leg": (
        {"rate", "slack"}, False,
        lambda c, mode=mode: leg_kernels(Leg(rates=c.rates), c.t, mode))
       for mode in ("closed_form", "quadrature", "auto")},
    **{f"leg_kernels-{mode}-sample-leg": (
        {"sample", "slack"}, False,
        lambda c, mode=mode: leg_kernels(Leg(samples=c.samples), c.t, mode))
       for mode in ("plugin", "quadrature", "auto")},
    "variance_pipeline": (
        {"rate", "sample", "slack", "size"}, True,
        lambda c: variance_pipeline(c.scenario, 3, mode="closed_form",
                                    sizes_x=c.sizes, sizes_y=(3, 3))),
    "resample_estimate": (
        {"rate", "sample", "slack"}, True,
        lambda c: resample_estimate(c.scenario, ResamplingConfig(r=3))),
    "enumerate_exact": (
        {"rate", "sample", "slack"}, True,
        lambda c: enumerate_exact(c.scenario, ResamplingConfig(r=1))),
    "simulate_pipeline_variance": (
        {"rate", "sample", "slack", "size"}, True,
        lambda c: simulate_pipeline_variance(c.scenario, c.sizes, (3, 3), r=3,
                                             replications=2, seed=0)),
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry, bad in product(ENTRY_POINTS, BAD_VALUES)
    if BAD_VALUES[bad][0] in ENTRY_POINTS[entry][0]
])
def test_every_entry_point_refuses_each_bad_value(entry, bad):
    kind, value = BAD_VALUES[bad]
    _, takes_scenario, call = ENTRY_POINTS[entry]
    with pytest.raises(ValidationError) as info:
        call(Inputs.with_bad(kind, value))
    assert ("empty" if value is None else repr(value)) in str(info.value)
    if takes_scenario:
        assert info.value.leg == 1
