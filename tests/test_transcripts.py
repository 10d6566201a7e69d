"""Byte-for-byte CLI transcripts.

Each file in ``tests/data/transcripts/`` records one command: its argv, its
exit code, and its stdout and stderr as lists of lines. The test replays
every record in-process through ``circrel.cli.main`` and compares every
byte. Commands run from a scratch directory that holds a copy of
``scenarios/`` and the fixture files of ``INPUTS``, with ``CIRCREL_SEED``
unset.

A change that is meant to move output rewrites the records in the same
commit, so its diff shows exactly what moved, and CHANGES.md names it.
From the repository root,

    PYTHONPATH=src python tests/test_transcripts.py

reruns every record's argv and rewrites its exit code and output. To add a
command, write a record that holds only its ``argv`` and run the same line.
Never rewrite to absorb a difference that no change explains.
"""

import contextlib
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest

from circrel.cli import main

REPO = Path(__file__).resolve().parents[1]
RECORDS = REPO / "tests" / "data" / "transcripts"


def _rate_leg(a, b):
    return {"delay": {"exponential": {"rate": a}}, "service": {"exponential": {"rate": b}}}


def _sample_leg(delays, services):
    return {"delay": {"samples": delays}, "service": {"samples": services}}


TWO_LEG_RATES = {"intervals": [60, 90], "legs": [_rate_leg(0.05, 0.02), _rate_leg(0.1, 0.03)]}
OBSERVATIONS = ("leg,kind,value\n1,delay,2.5\n1,delay,7.0\n1,service,20.0\n"
                "2,delay,4.5\n2,service,12.1\n2,service,30.0\n")

# Fixture files, by name in the scratch directory: dicts are written as JSON,
# strings as UTF-8 text.
INPUTS = {
    # 0.1 + 0.4 and 0.3 + 0.2 round to exactly 0.5: ties that fit.
    "decimal_tie.json": {"intervals": [0.5], "legs": [_sample_leg([0.1, 0.3], [0.4, 0.2])]},
    "all_fit.json": {"intervals": [100, 60], "legs": [
        _sample_leg([1.0, 2.5, 4.0], [10.0, 20.0]),
        _sample_leg([0.0, 3.0], [5.0, 7.5, 9.0]),
    ]},
    # b = a, b = 2a and a = 2b, where two kernel rates coincide.
    "tube_lines.json": {"intervals": [10, 50, 200], "legs": [
        _rate_leg(0.05, 0.05), _rate_leg(0.05, 0.1), _rate_leg(0.1, 0.05),
    ]},
    "tail_t1200.json": {"intervals": [1200] * 5, "legs": [_rate_leg(0.05, 0.02)] * 5},
    "mixed.json": {"intervals": [140, 25], "legs": [
        _rate_leg(0.05, 0.02), _sample_leg([3.1, 0.0, 11.4], [14.0, 9.5]),
    ]},
    "two_leg_rates.json": TWO_LEG_RATES,
    "observations.csv": OBSERVATIONS,
    # Spreadsheets save "CSV UTF-8" with a leading byte-order mark.
    "bom_two_leg_rates.json": "\ufeff" + json.dumps(TWO_LEG_RATES),
    "bom_observations.csv": "\ufeff" + OBSERVATIONS,
    "thirteen_legs.json": {"intervals": [100] * 13, "legs": [_rate_leg(0.05, 0.02)] * 13},
    # Rate times slack of 1e6 and 1e3: the service law's mass lies in the
    # first tenth of [0, 1e6], where quadrature must place its panels itself.
    "stiff_quadrature.json": {"intervals": [1e6], "legs": [_rate_leg(1.0, 0.001)]},
    "truncated.json": '{"intervals": [1',
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "bad_header.csv": "leg,value,kind\n1,2.5,delay\n",
}


@contextlib.contextmanager
def workspace():
    """A scratch directory with the inputs every record uses, as the cwd."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(REPO / "scenarios", Path(tmp) / "scenarios")
        for name, content in INPUTS.items():
            text = content if isinstance(content, str) else json.dumps(content)
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        seed = os.environ.pop("CIRCREL_SEED", None)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)
            if seed is not None:
                os.environ["CIRCREL_SEED"] = seed


def replay(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue().splitlines(keepends=True),
        "stderr": err.getvalue().splitlines(keepends=True),
    }


def _record(name: str) -> dict:
    return json.loads((RECORDS / f"{name}.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def scratch():
    with workspace():
        yield


@pytest.mark.parametrize("name", sorted(p.stem for p in RECORDS.glob("*.json")))
def test_transcript(name, scratch):
    record = _record(name)
    assert replay(record["argv"]) == record


def test_record_names_match_exit_codes():
    # exit<N>_... records exit N; every other record succeeds.
    for path in RECORDS.glob("*.json"):
        named = re.fullmatch(r"exit(\d+)_.+", path.stem)
        expected = int(named[1]) if named else 0
        assert json.loads(path.read_text(encoding="utf-8"))["exit"] == expected, path.stem


def test_legs_without_rates_count_alike_in_every_mode():
    # Closed form counts a leg without rates as plug-in and quadrature mode do.
    assert (_record("sweep_samples_closed_form")["stdout"]
            == _record("sweep_plugin")["stdout"])
    sample_legs = [json.loads("".join(_record(name)["stdout"]))["per_leg_h"][1]
                   for name in ("variance_mixed_closed_form", "variance_mixed_quadrature")]
    assert sample_legs[0] == sample_legs[1]
    assert sample_legs[0]["both"]["method"] == "plugin"


def rewrite() -> None:
    with workspace():
        for path in sorted(RECORDS.glob("*.json")):
            argv = json.loads(path.read_text(encoding="utf-8"))["argv"]
            path.write_text(json.dumps(replay(argv), indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    rewrite()
