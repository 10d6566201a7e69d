"""End-to-end and per-layer benchmark of the ``circrel`` CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {resample,sweep,verify} \
        --seed N --seconds S --trace {0,1}

The benchmark writes its seeded inputs under ``perfbench/out/`` and drives
the CLI as a closed loop: one ``python -m circrel`` subprocess at a time,
the next started only when the last has exited. It repeats whole rounds of
the workload's operations until the calls have taken ``--seconds`` of wall
time, and checks every output against references computed apart from
``circrel`` (see reference.py).

With ``--trace 0`` it reports the end-to-end metrics: units of work per
second of CLI wall time, interpreter start-up included, each call's wall
taken as the median over the run's rounds. With
``--trace 1`` it runs one checked subprocess round, then alternates
untraced and traced in-process rounds of the same operations and reports
per-layer metrics from the spans, with the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Progress goes to stderr. Exit code 2 means the program under test
could not be found or built.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# --help calls for setup_s: a few before the first round and a few before
# every round, so the median samples the whole run, not its first seconds.
SETUP_FIRST = 3
SETUP_PER_ROUND = 1
IMPORT_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "estimate_realizations_per_s": "1/s",
    "closed_form_points_per_s": "1/s",
    "quadrature_points_per_s": "1/s",
    "plugin_small_n_points_per_s": "1/s",
    "plugin_large_n_points_per_s": "1/s",
    "replications_per_s": "1/s",
}


@dataclass
class Call:
    stdout: bytes
    code: int
    wall: float
    rss_mb: float


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CIRCREL_SEED", None)  # the seed comes from --seed only
    env["PYTHONPATH"] = SRC
    return env


class Runner:
    """Closed-loop CLI runner: one child process at a time, started by the
    lean launcher process so that each child's max-RSS is its own."""

    def __init__(self, log):
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")], cwd=ROOT, env=_child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log)

    def run(self, argv: list[str], module=("-m", "circrel")) -> Call:
        request = json.dumps([sys.executable, *module, *argv]).encode() + b"\n"
        self.launcher.stdin.write(request)
        self.launcher.stdin.flush()
        header = self.launcher.stdout.readline()
        if not header:
            _fail("launcher process ended")
        header = json.loads(header)
        stdout = self.launcher.stdout.read(header["bytes"])
        return Call(stdout, header["code"], header["wall"], header["maxrss_kb"] / 1024.0)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()


class Checker:
    """Checks each operation's output once per distinct output."""

    def __init__(self):
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def record(self, op: workloads.Op, stdout: bytes, code: int, round_outputs: dict,
               extra: list[str] = ()) -> None:
        key = (op.name, code, stdout)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = op.check(stdout, code)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.verdicts[key] = [f"unreadable output: {exc!r}"]
        faults = list(self.verdicts[key]) + list(extra)
        if op.same_as and round_outputs.get(op.same_as) != stdout:
            faults.append(f"stdout differs from {op.same_as}")
        round_outputs[op.name] = stdout
        self.attempted += 1
        if faults:
            self.failed += 1
            if not op.audit:
                self.unexpected.append(f"{op.name}: {'; '.join(faults[:3])}")

    @property
    def correct(self) -> bool:
        return not self.unexpected


def _rates(rounds: list[list[tuple[workloads.Op, Call]]]) -> dict[str, float]:
    """Per metric: work per round over the wall of a typical round.

    Each operation's wall is its median over all its calls in the run; an
    operation called m times a round counts m times.
    """
    walls: dict[str, list[float]] = {}
    for calls in rounds:
        for op, call in calls:
            walls.setdefault(op.name, []).append(call.wall)
    work: dict[str, float] = {}
    wall: dict[str, float] = {}
    for op, _ in rounds[0]:
        if op.metric:
            work[op.metric] = work.get(op.metric, 0) + op.work
            wall[op.metric] = wall.get(op.metric, 0.0) + statistics.median(walls[op.name])
    return {metric: work[metric] / wall[metric] for metric in work}


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def build_program(runner: Runner) -> None:
    """Byte-compile the package from source, then warm the start-up path."""
    if not os.path.isfile(os.path.join(SRC, "circrel", "cli.py")):
        _fail(f"no circrel sources under {SRC}")
    compiled = runner.run(["-m", "compileall", "-q", SRC], module=())
    if compiled.code != 0 or runner.run(["--help"]).code != 0:
        _fail("circrel failed to build or start")


def measure_setup(runner: Runner, repeats: int) -> list[float]:
    walls = []
    for _ in range(repeats):
        call = runner.run(["--help"])
        if call.code != 0 or not call.stdout.startswith(b"usage: circrel"):
            _fail("circrel --help failed")
        walls.append(call.wall)
    return walls


def run_round(runner: Runner, ops, checker: Checker) -> list[tuple[workloads.Op, Call]]:
    calls = []
    outputs: dict[str, bytes] = {}
    for op in ops:
        call = runner.run(op.argv)
        checker.record(op, call.stdout, call.code, outputs)
        calls.append((op, call))
    return calls


def end_to_end(ops, seconds: float, runner: Runner, checker: Checker, log_path: str) -> dict:
    setup = measure_setup(runner, SETUP_FIRST)
    measured = sum(setup)
    rounds = []
    round_walls = []
    # Whole rounds, stopping where the measured time lands nearest ``seconds``.
    while not rounds or measured + statistics.mean(round_walls) / 2 < seconds:
        walls = measure_setup(runner, SETUP_PER_ROUND)
        calls = run_round(runner, ops, checker)
        setup += walls
        rounds.append(calls)
        round_walls.append(sum(walls) + sum(call.wall for _, call in calls))
        measured += round_walls[-1]
        print(f"perfbench: round {len(rounds)}, {measured:.1f} s measured", file=sys.stderr)
    with open(log_path, "w") as fh:
        fh.write("round,op,code,wall_s,rss_mb\n")
        for i, calls in enumerate(rounds):
            for op, call in calls:
                fh.write(f"{i},{op.name},{call.code},{call.wall:.6f},{call.rss_mb:.1f}\n")
    metrics = _rates(rounds)
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = max(call.rss_mb for calls in rounds for _, call in calls)
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items() if name in metrics}


def _import_seconds(runner: Runner) -> float:
    """Median time to import circrel.cli in a fresh interpreter."""
    probe = ("import time; t = time.perf_counter(); import circrel.cli; "
             "print(time.perf_counter() - t)")
    return statistics.median(
        float(runner.run(["-c", probe], module=()).stdout) for _ in range(IMPORT_REPEATS))


def _in_process(main, argv) -> tuple[bytes, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue().encode(), code


def per_layer(ops, seconds: float, runner: Runner, checker: Checker, spans_path: str) -> dict:
    start = time.perf_counter()
    import_s = _import_seconds(runner)
    baseline = {op.name: call.stdout for op, call in run_round(runner, ops, checker)}

    sys.path.insert(0, SRC)
    import circrel.cli

    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    last_round_start = 0

    def pair_mean():
        return statistics.mean(walls[False]) + statistics.mean(walls[True])

    # Pairs of untraced and traced rounds, stopping nearest ``seconds``.
    while not walls[True] or time.perf_counter() - start + pair_mean() / 2 < seconds:
        for traced in (False, True):
            if traced:
                tracer.install()
                last_round_start = len(tracer.spans)
            outputs: dict[str, bytes] = {}
            round_start = time.perf_counter()
            try:
                for op in ops:
                    if traced:
                        stdout, code = tracer.span("cli.main", _in_process, circrel.cli.main, op.argv)
                    else:
                        stdout, code = _in_process(circrel.cli.main, op.argv)
                    differs = [] if stdout == baseline[op.name] else [
                        f"{'traced' if traced else 'in-process'} stdout differs from the CLI call"]
                    checker.record(op, stdout, code, outputs, differs)
            finally:
                walls[traced].append(time.perf_counter() - round_start)
                tracer.uninstall()
        print(f"perfbench: traced round {len(walls[True])}", file=sys.stderr)

    tracing.write_spans(tracer.spans[last_round_start:], spans_path)
    metrics = tracing.layer_metrics(tracer.spans, len(walls[True]), tracer.installed)
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return {name: {"value": value, "unit": _layer_unit(name)}
            for name, value in sorted(metrics.items())}


def _layer_unit(name: str) -> str:
    if name.endswith("_calls") or name == "quadrature.evaluations":
        return "count"
    return "s" if name.endswith("_s") else "us"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs_dir = os.path.join(run_dir, "inputs")
    os.makedirs(inputs_dir)
    with open(os.path.join(run_dir, "stderr.log"), "wb") as log:
        runner = Runner(log)
        try:
            build_program(runner)
            ops = workloads.build(args.workload, args.seed, os.path.relpath(inputs_dir))
            checker = Checker()
            if args.trace:
                metrics = per_layer(ops, args.seconds, runner, checker,
                                    os.path.join(run_dir, "spans.csv"))
            else:
                metrics = end_to_end(ops, args.seconds, runner, checker,
                                     os.path.join(run_dir, "calls.csv"))
        finally:
            runner.close()
    for fault in checker.unexpected:
        print(f"perfbench: FAULT {fault}", file=sys.stderr)
    print(json.dumps({"correct": checker.correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
