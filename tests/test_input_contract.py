"""Input contract under structural damage to valid input files.

A valid scenario JSON and samples CSV are mutated (keys dropped, values
replaced by ones of the wrong JSON type, files truncated) and run through
``variance`` and ``estimate``. Whatever the damage, the CLI must end with a
documented exit code (0 success, 2 bad input, 3 missing data, 4 numeric
failure), print a ``circrel:`` message when it fails, and never raise.
"""

import contextlib
import copy
import io
import json
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from circrel.cli import main

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
