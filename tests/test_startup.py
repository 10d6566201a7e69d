"""Start-up: numpy loads only where arrays are built.

``--help``, argument and parse errors, and ``variance`` and ``sweep`` never
touch an array, so a fresh interpreter running them must end without numpy
in ``sys.modules``; ``estimate``, whose resampler draws arrays, loads it.
The package's public names must be the modules' own objects.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circrel

REPO = Path(__file__).resolve().parents[1]
FIVE_LEG = str(REPO / "scenarios" / "five_leg_exponential.json")
TWO_LEG = str(REPO / "scenarios" / "two_leg_samples.json")

# Runs main on argv in a fresh interpreter; the last stdout line is the exit
# code and whether numpy was loaded.
PROBE = """
import json, sys
from circrel.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, "numpy" in sys.modules]))
"""


def _probe(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, cwd=REPO, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, code", [
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["variance", FIVE_LEG, "--sample-size", "20"], 0, id="closed-form-variance"),
    pytest.param(["sweep", FIVE_LEG, "--sample-size", "20", "--t-grid", "20:320:0.5"], 0,
                 id="closed-form-sweep"),
    pytest.param(["variance", TWO_LEG, "--mode", "plugin"], 0, id="plugin-variance"),
    pytest.param(["sweep", TWO_LEG, "--mode", "plugin", "--t-grid", "25:40:15"], 0,
                 id="plugin-sweep"),
    pytest.param(["variance", TWO_LEG], 0, id="closed-form-variance-samples"),
    pytest.param(["sweep", TWO_LEG, "--t-grid", "25:40:15"], 0, id="closed-form-sweep-samples"),
    pytest.param(["variance", FIVE_LEG, "--sample-size", "20", "--mode", "quadrature"], 0,
                 id="quadrature-variance"),
    pytest.param(["sweep", FIVE_LEG, "--sample-size", "20", "--t-grid", "100:140:20",
                  "--mode", "quadrature"], 0, id="quadrature-sweep"),
    pytest.param(["variance", FIVE_LEG, "--mode", "no-such-mode"], 2, id="argument-error"),
    pytest.param(["variance", str(REPO / "pyproject.toml")], 2, id="parse-error"),
])
def test_numpy_not_loaded(argv, code):
    assert _probe(argv) == [code, False]


def test_numpy_loaded_by_estimate():
    assert _probe(["estimate", TWO_LEG, "-r", "10"]) == [0, True]


def test_exports_are_the_home_modules_objects():
    for name in circrel.__all__:
        value = getattr(circrel, name)
        assert value.__module__.startswith("circrel."), name
        assert value is getattr(sys.modules[value.__module__], name), name
    assert set(circrel.__all__) <= set(dir(circrel))
    namespace = {}
    exec("from circrel import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(circrel.__all__)
    with pytest.raises(AttributeError):
        circrel.no_such_name
