"""``circrel sweep``: one kernel table per distinct leg over the whole grid.

The grid path must give every row bit for bit what ``variance_pipeline``
gives at that slack, evaluate each distinct leg once (as ``variance`` must
at the plan's own slacks), keep only O(grid)-sized state for sample legs,
and reject grids it cannot walk or that exceed the point cap. The
enumerated mu11 it shares with ``variance`` must stay in [0, 1].
"""

import contextlib
import io
import json
import os
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circrel.variance
from circrel import distributions
from circrel import CircrelError, CirculationPlan, load_scenario, variance_pipeline
from circrel.cli import MAX_GRID_POINTS, _parse_grid, main

REPO = Path(__file__).resolve().parents[1]
FIVE_LEG = str(REPO / "scenarios" / "five_leg_exponential.json")
TWO_LEG = str(REPO / "scenarios" / "two_leg_samples.json")
THREE_RATE_LINES = [(0.05, 0.05), (0.03, 0.06), (0.04, 0.02)]  # b=a, b=2a, a=2b
DECIMAL_TIE = {"delay": {"samples": [0.1, 0.3]}, "service": {"samples": [0.4, 0.2]}}


def _rate_leg(a, b):
    return {"delay": {"exponential": {"rate": a}}, "service": {"exponential": {"rate": b}}}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _count_leg_kernels(monkeypatch):
    """The legs of every ``leg_kernels`` call from here on, in call order."""
    seen = []
    evaluate = circrel.variance.leg_kernels

    def counting(*args, **kwargs):
        seen.append(args[0])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr("circrel.variance.leg_kernels", counting)
    return seen


@st.composite
def rate_legs(draw):
    a = draw(st.sampled_from([0.01, 0.02, 0.05, 0.1]))
    b = draw(st.sampled_from([a, 2 * a, a / 2, 0.03]))
    return _rate_leg(a, b)


@st.composite
def sample_legs(draw):
    """Tenth-minute samples of sizes 1 to 3, with services that tie a delay
    against whole-minute slack, or the fixed decimal-tie leg."""
    if draw(st.booleans()):
        return DECIMAL_TIE
    t = draw(st.integers(1, 3))
    tenths = st.integers(0, 10 * t)
    delays = draw(st.lists(tenths, min_size=1, max_size=3))
    ties = st.sampled_from([10 * t - a for a in delays])
    services = draw(st.lists(st.one_of(tenths, ties), min_size=1, max_size=3))
    return {"delay": {"samples": [a / 10 for a in delays]},
            "service": {"samples": [b / 10 for b in services]}}


@st.composite
def sweeps(draw):
    """A scenario document with repeated or distinct legs, and the sweep's
    arguments."""
    samples = draw(st.booleans())
    pool = draw(st.lists(sample_legs() if samples else rate_legs(), min_size=1, max_size=2))
    legs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    modes = ["closed_form", "plugin", "quadrature"] if samples else ["closed_form", "quadrature"]
    mode = draw(st.sampled_from(modes))
    if samples:
        start, step = draw(st.integers(0, 30)) / 10, draw(st.sampled_from([0.1, 0.3]))
    else:
        start, step = draw(st.integers(0, 300)), draw(st.sampled_from([0.5, 7, 40]))
    points = draw(st.integers(1, 3 if mode == "quadrature" and not samples else 25))
    argv = ["--t-grid", f"{start}:{start + (points - 1) * step}:{step}", "--mode", mode,
            "--method", draw(st.sampled_from(["factorized", "enumerate"])),
            "-r", str(draw(st.sampled_from([1, 50])))]
    if not samples:
        argv += ["--sample-size", str(draw(st.integers(1, 25)))]
    return {"intervals": [1] * len(legs), "legs": legs}, argv


def _expected(scenario, argv):
    """The sweep's stdout and stderr from one variance_pipeline call per point,
    up to the first error; the header comes only with a first row."""
    options = dict(zip(argv[::2], argv[1::2]))
    k = scenario.plan.k
    sizes = [int(options["--sample-size"])] * k if "--sample-size" in options else None
    header, out = "t,theta,mu11,variance\n", ""
    for t in _parse_grid(options["--t-grid"]):
        point = replace(scenario, plan=CirculationPlan((t,) * k))
        try:
            report = variance_pipeline(
                point, r=int(options["-r"]), mode=options["--mode"],
                method=options["--method"], sizes_x=sizes, sizes_y=sizes,
            )
        except CircrelError as exc:
            return (header + out if out else ""), f"circrel: {exc}\n"
        out += f"{t!r},{report.theta!r},{report.mu11!r},{report.variance!r}\n"
    return header + out, ""


@given(sweeps())
@settings(max_examples=120, deadline=None)
def test_rows_equal_the_single_point_pipeline(case):
    # repr round-trips, so equal text is equal bits (and tells -0.0 from 0.0).
    doc, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(["sweep", str(path), *argv])
        expected = _expected(load_scenario(str(path)), argv)
    assert (out, err) == expected
    assert (code == 0) == (err == "")


@pytest.mark.parametrize("legs, calls", [
    pytest.param(None, 1, id="five-identical-legs"),
    pytest.param([_rate_leg(a, b) for a, b in THREE_RATE_LINES], 3, id="three-distinct-legs"),
])
def test_each_distinct_leg_is_evaluated_once(legs, calls, monkeypatch, tmp_path):
    path = FIVE_LEG
    if legs is not None:
        path = tmp_path / "three.json"
        path.write_text(json.dumps({"intervals": [1] * len(legs), "legs": legs}))
    seen = _count_leg_kernels(monkeypatch)
    code, out, _ = _run(["sweep", str(path), "--t-grid", "20:320:0.05", "--sample-size", "20"])
    assert code == 0
    assert len(out.splitlines()) == 6002
    assert len(seen) == calls


@pytest.mark.parametrize("legs, intervals, calls", [
    pytest.param(None, [140] * 5, 1, id="five-identical-legs"),
    pytest.param([_rate_leg(a, b) for a, b in THREE_RATE_LINES], [140] * 3, 3,
                 id="three-distinct-legs"),
    pytest.param([_rate_leg(0.05, 0.02)] * 2, [100, 140], 2,
                 id="equal-legs-at-two-intervals"),
])
def test_variance_evaluates_each_distinct_leg_once(legs, intervals, calls, monkeypatch,
                                                   tmp_path):
    # A leg's table is shared only where its slack is the same too.
    path = FIVE_LEG
    if legs is not None:
        path = tmp_path / "legs.json"
        path.write_text(json.dumps({"intervals": intervals, "legs": legs}))
    seen = _count_leg_kernels(monkeypatch)
    code, out, _ = _run(["variance", str(path), "--sample-size", "20"])
    assert code == 0
    assert len(json.loads(out)["per_leg_h"]) == len(intervals)
    assert len(seen) == calls


@pytest.mark.parametrize("argv, walks", [
    pytest.param(["sweep", TWO_LEG, "--mode", "plugin", "--t-grid", "20:60:0.5"],
                 {"_pair_walk": 2}, id="sweep-pair-walk"),
    pytest.param(["sweep", TWO_LEG, "--mode", "plugin", "--t-grid", "25:40:15"],
                 {"_slack_walk": 2}, id="sweep-slack-walk"),
    pytest.param(["variance", TWO_LEG, "--mode", "plugin"], {"_slack_walk": 2},
                 id="variance-slack-walk"),
])
def test_plugin_counts_each_leg_and_column_once(argv, walks, monkeypatch):
    # R, S and D of a sample leg come from one count per leg and column,
    # by one walk over the whole column.
    calls = []
    for name in ("_pair_walk", "_slack_walk"):
        def spy(*args, _name=name, _walk=getattr(distributions, name)):
            calls.append(_name)
            return _walk(*args)
        monkeypatch.setattr(distributions, name, spy)
    distributions._kept_counts.cache_clear()
    code, _, _ = _run(argv)
    assert code == 0
    assert Counter(calls) == walks


def test_long_plugin_sweep_keeps_grid_sized_state(tmp_path):
    # The benchmark's large-n sizes; an (n x grid) int64 count matrix for
    # 200 services and 20,001 slacks would alone take 32 MB.
    rng = np.random.default_rng(17)
    legs = [{"delay": {"samples": rng.exponential(5.0, nx).tolist()},
             "service": {"samples": (8.0 + rng.exponential(6.0, ny)).tolist()}}
            for nx, ny in ((500, 200), (300, 400))]
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"intervals": [60, 60], "legs": legs}))
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = main(["sweep", str(path), "--t-grid", "0:100:0.005", "--mode", "plugin"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2**20


@pytest.mark.parametrize("grid", ["inf:inf:1", "0:inf:1", "0:1:inf", "nan:1:1", "0:1:nan"])
def test_nonfinite_grid_exit_2(grid):
    code, out, err = _run(["sweep", FIVE_LEG, "--sample-size", "20", "--t-grid", grid])
    assert (code, out) == (2, "")
    assert err.startswith("circrel:") and "finite" in err


def _stepping_loop(grid_spec):
    """The grid as the CLI built it before the point cap: append start + i*step
    while it stays within stop + 1e-9*step."""
    start, stop, step = (float(p) for p in grid_spec.split(":"))
    grid = [start]
    while (t := start + len(grid) * step) <= stop + 1e-9 * step:
        grid.append(t)
    return grid


@pytest.mark.parametrize("grid", [
    "-0:1:1", "5:5:0.1", "0:0.3:0.1", "0:1:3", "1e9:1e9:1e-9", "0:1:1e300",
    "-1e308:1e308:1e303", "20:320:0.05", "0.001:5000:0.5", f"0:{MAX_GRID_POINTS - 1}:1",
    # perfbench grid_spec arguments: short decimal start and step, exact decimal stop.
    "20:319.9500:0.0500", "0.37:61.264:0.306", "113.7:1402.41:1.29", "1.234:9.822:0.113",
])
def test_grid_points_match_the_stepping_loop(grid):
    # repr tells -0.0 from 0.0.
    assert list(map(repr, _parse_grid(grid))) == list(map(repr, _stepping_loop(grid)))


@given(st.integers(-500, 5000), st.integers(1, 5000), st.integers(1, 4), st.integers(0, 2000))
@settings(max_examples=300, deadline=None)
def test_decimal_grids_match_the_stepping_loop(start, step, scale, last):
    start, step = Decimal(start).scaleb(-2), Decimal(step).scaleb(-scale)
    grid = f"{start}:{start + last * step}:{step}"
    assert list(map(repr, _parse_grid(grid))) == list(map(repr, _stepping_loop(grid)))


@pytest.mark.parametrize("grid", [
    f"0:{MAX_GRID_POINTS}:1", "0:1e9:1", "0:1e308:1e-308", "1:2:1e-320",
])
def test_oversize_grid_exit_2(grid):
    code, out, err = _run(["sweep", FIVE_LEG, "--sample-size", "20", "--t-grid", grid])
    assert (code, out) == (2, "")
    assert err.startswith("circrel:") and f"more than {MAX_GRID_POINTS} points" in err


@pytest.mark.parametrize("argv", [
    ["variance"], ["sweep", "--t-grid", "1:1:1"],
], ids=["variance", "sweep"])
def test_enumerated_mu11_of_all_fit_legs_is_one(argv, tmp_path):
    # The plan's 16 pattern weights sum to 1 + 2**-52 in floating point.
    leg = {"delay": {"samples": [0, 0, 0]}, "service": {"samples": [0, 0]}}
    path = tmp_path / "fits.json"
    path.write_text(json.dumps({"intervals": [1, 1], "legs": [leg, leg]}))
    code, out, err = _run([argv[0], str(path), *argv[1:], "--mode", "plugin",
                           "--method", "enumerate", "-r", "1"])
    assert (code, err) == (0, "")
    mu11 = json.loads(out)["mu11"] if argv == ["variance"] else float(out.split(",")[-2])
    assert mu11 == 1.0
