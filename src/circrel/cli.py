"""Command-line interface and scenario file ingestion.

Commands:

* ``estimate`` -- resampling estimate of the plan success probability
* ``variance`` -- analytic variance of that estimator, with per-leg kernels
* ``sweep``    -- variance across a slack-time grid, as plot-ready CSV
* ``verify``   -- run a self-check suite (``verify.SUITES``)

Scenario files are JSON documents::

    {
      "label": "winter schedule",
      "time_unit": "minutes",
      "intervals": [140, 140, 140, 140, 140],
      "legs": [
        {"delay": {"exponential": {"rate": 0.05}},
         "service": {"exponential": {"rate": 0.02}}},
        ...
      ]
    }

``label``, ``time_unit`` and any other unknown key are accepted and
ignored. A leg side is either ``{"exponential": {"rate": ...}}`` or
``{"samples": [...]}``; within one leg both sides must use the same form.
An optional samples CSV (header ``leg,kind,value``, legs 1-based, kind
``delay`` or ``service``) attaches observations to legs, on top of
exponential rates or extending existing sample lists.

Reports go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 verification failure, 2 bad input, 3 missing data, 4 numeric failure.
The seed defaults to the CIRCREL_SEED environment variable, then 0;
the ``--seed`` flag wins.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict

from .errors import CircrelError, MissingSamples, NumericError, ParseError, ValidationError
from .plan import (
    CirculationPlan,
    ExponentialLegModel,
    Leg,
    LegSamples,
    Scenario,
    validate_scenario,
)
from .resampler import ResamplingConfig, resample_estimate
from .variance import KERNEL_MODES, MU11_METHODS, VarianceReport, _sweep, variance_pipeline
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_MISSING_DATA = 3
EXIT_NUMERIC = 4

# Most points a --t-grid may have: a sweep holds its grid and per-leg tables
# in memory, so a larger one is rejected as bad input before it is built.
MAX_GRID_POINTS = 1_000_000


def _number(value, where: str) -> float:
    """A JSON value read as float() reads it, so a numeric string such as "140"
    or "nan" counts too; booleans and values float() refuses are parse errors."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ParseError(f"{where}: expected a number, got {json.dumps(value)}")


def _parse_side(side, leg_index: int, side_name: str):
    """One leg side from JSON: ('rate', value) or ('samples', values)."""
    if not isinstance(side, dict) or len(side) != 1:
        raise ParseError(
            f"leg {leg_index + 1} {side_name}: expected one of 'exponential' or 'samples'"
        )
    (kind, payload), = side.items()
    if kind == "exponential":
        if not isinstance(payload, dict) or "rate" not in payload:
            raise ParseError(f"leg {leg_index + 1} {side_name}: exponential needs a rate")
        return "rate", _number(payload["rate"], f"leg {leg_index + 1} {side_name} rate")
    if kind == "samples":
        if not isinstance(payload, list):
            raise ParseError(f"leg {leg_index + 1} {side_name}: samples must be a list")
        return "samples", [
            _number(v, f"leg {leg_index + 1} {side_name} sample {j + 1}")
            for j, v in enumerate(payload)
        ]
    raise ParseError(f"leg {leg_index + 1} {side_name}: unknown model kind {kind!r}")


def _read_samples_csv(path: str, k: int):
    """Per-leg delay and service values from a leg,kind,value CSV."""
    delays = [[] for _ in range(k)]
    services = [[] for _ in range(k)]
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not rows or [c.strip().lower() for c in rows[0]] != ["leg", "kind", "value"]:
        raise ParseError(f"{path}: expected header 'leg,kind,value'")
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 3:
            raise ParseError(f"{path}:{line_no}: expected 3 fields, got {len(row)}")
        try:
            leg_no = int(row[0])
            value = float(row[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{line_no}: {exc}") from None
        if not 1 <= leg_no <= k:
            raise ValidationError(
                f"{path}:{line_no}: leg {leg_no} outside plan with {k} legs"
            )
        kind = row[1].strip().lower()
        if kind == "delay":
            delays[leg_no - 1].append(value)
        elif kind == "service":
            services[leg_no - 1].append(value)
        else:
            raise ParseError(f"{path}:{line_no}: kind {kind!r}")
    return delays, services


def load_scenario(path: str, samples_csv_path: str | None = None) -> Scenario:
    """Parse, merge, and validate a scenario file plus optional samples CSV."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    # JSONDecodeError or UnicodeDecodeError, or arrays nested too deep to decode.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    try:
        raw_intervals = doc["intervals"]
        raw_legs = doc["legs"]
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from None
    if not isinstance(raw_intervals, list) or not isinstance(raw_legs, list):
        raise ParseError(f"{path}: intervals and legs must be lists")
    intervals = tuple(
        _number(t, f"{path}: interval {i + 1}") for i, t in enumerate(raw_intervals)
    )

    csv_delays = csv_services = None
    if samples_csv_path is not None:
        csv_delays, csv_services = _read_samples_csv(samples_csv_path, len(intervals))

    legs = []
    for i, raw in enumerate(raw_legs):
        if not isinstance(raw, dict) or "delay" not in raw or "service" not in raw:
            raise ParseError(f"{path}: leg {i + 1} needs 'delay' and 'service'")
        delay_kind, delay_val = _parse_side(raw["delay"], i, "delay")
        service_kind, service_val = _parse_side(raw["service"], i, "service")
        if delay_kind != service_kind:
            raise ValidationError(
                "delay and service must both be exponential or both samples "
                "(a samples CSV can add observations to an exponential leg)",
                leg=i,
            )
        rates = None
        delays, services = [], []
        if delay_kind == "rate":
            rates = ExponentialLegModel(delay_rate=delay_val, service_rate=service_val)
        else:
            delays, services = list(delay_val), list(service_val)
        # The CSV has one bucket per interval; a leg beyond the plan gets none
        # and is rejected below by validate_scenario's leg count check.
        if csv_delays is not None and i < len(csv_delays):
            delays += csv_delays[i]
            services += csv_services[i]
        # A leg with values in one family only is left for validate_scenario
        # to name the empty one.
        samples = LegSamples(tuple(delays), tuple(services)) if delays or services else None
        legs.append(Leg(samples=samples, rates=rates))

    return validate_scenario(Scenario(plan=CirculationPlan(intervals), legs=tuple(legs)))


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("CIRCREL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"CIRCREL_SEED {env!r} is not an integer") from None
    return 0


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _variance_payload(report: VarianceReport) -> dict:
    return {
        "theta": report.theta,
        "mu2": report.mu2,
        "mu11": report.mu11,
        "r": report.r,
        "variance": report.variance,
        "kernel_mode": report.kernel_mode,
        "method": report.method,
        "per_leg_h": [
            {"leg": i + 1, **{
                case: asdict(getattr(kern, case))
                for case in ("both", "neither", "service_only", "delay_only")
            }}
            for i, kern in enumerate(report.per_leg_h)
        ],
    }


def _cmd_estimate(args) -> int:
    scenario = load_scenario(args.scenario, args.samples)
    config = ResamplingConfig(r=args.resamples, seed=_resolve_seed(args.seed))
    report = resample_estimate(scenario, config)
    if args.format == "json":
        _emit_json(asdict(report))
    else:
        sys.stdout.write("theta_star,r,seed,success_count\n")
        sys.stdout.write(
            f"{report.theta_star!r},{report.r},{report.seed},{report.success_count}\n"
        )
    return EXIT_OK


def _sizes_from_args(args, scenario: Scenario):
    if args.sample_size is not None:
        if args.sample_size < 1:
            raise ValidationError(f"--sample-size {args.sample_size} must be >= 1")
        return [args.sample_size] * scenario.plan.k, [args.sample_size] * scenario.plan.k
    return None, None


def _cmd_variance(args) -> int:
    scenario = load_scenario(args.scenario, args.samples)
    sizes_x, sizes_y = _sizes_from_args(args, scenario)
    report = variance_pipeline(
        scenario,
        r=args.resamples,
        mode=args.mode,
        method=args.method,
        sizes_x=sizes_x,
        sizes_y=sizes_y,
    )
    _emit_json(_variance_payload(report))
    return EXIT_OK


def _parse_grid(grid_spec: str) -> tuple[float, ...]:
    parts = grid_spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--t-grid {grid_spec!r} must be start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--t-grid {grid_spec!r} must be numeric") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValidationError(f"--t-grid {grid_spec!r} must be finite")
    if step <= 0 or stop < start:
        raise ValidationError(f"--t-grid {grid_spec!r} needs step > 0 and stop >= start")
    # Point i is start + i * step while it stays within the bound; that test
    # is monotone in i, so the last index is the estimate moved to where the
    # test flips, and the cap is checked before any list is built.
    bound = stop + 1e-9 * step
    last = int(min((bound - start) / step, MAX_GRID_POINTS))
    while last < MAX_GRID_POINTS and start + (last + 1) * step <= bound:
        last += 1
    while last and start + last * step > bound:
        last -= 1
    if last >= MAX_GRID_POINTS:
        raise ValidationError(f"--t-grid {grid_spec!r} has more than {MAX_GRID_POINTS} points")
    return (start, *(start + i * step for i in range(1, last + 1)))


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario, args.samples)
    sizes_x, sizes_y = _sizes_from_args(args, scenario)
    grid = _parse_grid(args.t_grid)
    points = _sweep(scenario, grid, args.resamples, args.mode, args.method, sizes_x, sizes_y)
    rows = (f"{t!r},{report.theta!r},{report.mu11!r},{report.variance!r}\n" for t, report in points)
    # The first row has passed every check the variance command makes, so
    # bad input ends the command before the header is written.
    sys.stdout.write("t,theta,mu11,variance\n" + next(rows))
    sys.stdout.writelines(rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    checks = run_suite(args.suite, seed, replications=args.replications)
    payload = {
        "suite": args.suite,
        "seed": seed,
        "checks": [asdict(c) for c in checks],
        "passed": all(c.passed for c in checks),
    }
    _emit_json(payload)
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circrel",
        description="Circulation-plan reliability estimation and variance analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    estimate = sub.add_parser("estimate", help="resampling estimate of success probability")
    estimate.add_argument("scenario", help="scenario JSON file")
    estimate.add_argument("--samples", help="samples CSV (leg,kind,value)")
    estimate.add_argument("--resamples", "-r", type=int, default=50)
    estimate.add_argument("--seed", type=int, default=None)
    estimate.add_argument("--format", choices=["json", "csv"], default="json")
    estimate.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility and ignored; realizations run in vectorized batches",
    )
    estimate.set_defaults(func=_cmd_estimate)

    variance = sub.add_parser("variance", help="analytic variance of the estimator")
    variance.add_argument("scenario", help="scenario JSON file")
    variance.add_argument("--samples", help="samples CSV (leg,kind,value)")
    variance.set_defaults(func=_cmd_variance)

    sweep = sub.add_parser("sweep", help="variance across a slack grid, CSV output")
    sweep.add_argument("scenario", help="scenario JSON file (intervals overridden)")
    sweep.add_argument("--samples", help="samples CSV (leg,kind,value)")
    sweep.add_argument("--t-grid", required=True, help="start:stop:step (inclusive)")
    sweep.set_defaults(func=_cmd_sweep)

    for command in (variance, sweep):
        command.add_argument("--resamples", "-r", type=int, default=50)
        command.add_argument("--mode", choices=KERNEL_MODES, default="closed_form")
        command.add_argument("--method", choices=MU11_METHODS, default="factorized")
        command.add_argument(
            "--sample-size", type=int, default=None,
            help="per-leg sample size when legs carry rates instead of samples",
        )

    verify = sub.add_parser("verify", help="run a self-check suite")
    verify.add_argument("--suite", choices=SUITES, required=True)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--replications", type=int, default=20000)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MissingSamples as exc:
        print(f"circrel: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except NumericError as exc:
        print(f"circrel: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CircrelError, OSError) as exc:
        print(f"circrel: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
