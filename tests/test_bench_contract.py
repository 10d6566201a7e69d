"""The benchmark's per-layer metrics stay reachable from the CLI.

perfbench times layers by wrapping public functions where their callers look
them up. A refactor that stops calling one of them through that name drops
its metric from a traced run without any error. This test runs one small
in-process round of the benchmark's kinds of calls under the benchmark's own
tracer and checks that every per-layer metric listed in BENCHMARK.json is
produced, apart from the two that the harness measures outside the spans.
"""

import importlib.util
import json
import sys
from pathlib import Path

from circrel.cli import main

REPO = Path(__file__).resolve().parents[1]
FIVE_LEG = str(REPO / "scenarios" / "five_leg_exponential.json")
TWO_LEG = str(REPO / "scenarios" / "two_leg_samples.json")

# Measured by the harness itself, not from spans.
NOT_FROM_SPANS = {"cli.import_s", "trace.overhead_s"}

ROUND = (
    ["sweep", FIVE_LEG, "--t-grid", "100:140:20", "--sample-size", "20"],
    ["sweep", FIVE_LEG, "--t-grid", "100:140:20", "--sample-size", "20",
     "--mode", "quadrature"],
    ["sweep", TWO_LEG, "--t-grid", "25:40:15", "--mode", "plugin"],
    ["estimate", TWO_LEG, "-r", "10"],
    ["verify", "--suite", "montecarlo", "--replications", "20"],
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_round_reports_every_per_layer_metric(capsys):
    tracing = _load_tracing()
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in benchmark["per_layer"]} - NOT_FROM_SPANS

    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [main(argv) for argv in ROUND]
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert codes == [0] * len(ROUND)
    metrics = tracing.layer_metrics(tracer.spans, 1, tracer.installed)
    assert sorted(expected - metrics.keys()) == []
