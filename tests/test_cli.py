import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from circrel import ParseError, ValidationError, load_scenario
from circrel.cli import main

REPO = Path(__file__).resolve().parents[1]
FIVE_LEG = str(REPO / "scenarios" / "five_leg_exponential.json")
TWO_LEG = str(REPO / "scenarios" / "two_leg_samples.json")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoadScenario:
    def test_five_leg_exponential(self):
        scenario = load_scenario(FIVE_LEG)
        assert scenario.plan.k == 5
        assert all(leg.rates is not None for leg in scenario.legs)

    def test_sample_file(self):
        scenario = load_scenario(TWO_LEG)
        assert scenario.legs[0].samples.n_delays == 5
        assert scenario.legs[1].samples.n_services == 5

    def test_csv_attaches_to_exponential_legs(self, tmp_path):
        csv_path = tmp_path / "obs.csv"
        rows = ["leg,kind,value"]
        for leg in range(1, 6):
            rows += [f"{leg},delay,2.5", f"{leg},delay,0.5", f"{leg},service,7.0"]
        csv_path.write_text("\n".join(rows) + "\n")
        scenario = load_scenario(FIVE_LEG, str(csv_path))
        for leg in scenario.legs:
            assert leg.rates is not None
            assert leg.samples.delays == (2.5, 0.5)
            assert leg.samples.services == (7.0,)

    def test_csv_extends_existing_samples(self, tmp_path):
        csv_path = tmp_path / "obs.csv"
        csv_path.write_text("leg,kind,value\n1,delay,9.9\n")
        scenario = load_scenario(TWO_LEG, str(csv_path))
        assert scenario.legs[0].samples.delays[-1] == 9.9
        assert scenario.legs[0].samples.n_delays == 6

    def test_csv_negative_value_names_leg(self, tmp_path):
        csv_path = tmp_path / "obs.csv"
        csv_path.write_text("leg,kind,value\n2,service,-1\n")
        with pytest.raises(ValidationError, match=r"^leg 2: service sample value -1\.0$") as info:
            load_scenario(TWO_LEG, str(csv_path))
        assert info.value.leg == 1

    def test_csv_with_one_family_names_the_empty_one(self, tmp_path):
        csv_path = tmp_path / "obs.csv"
        csv_path.write_text("leg,kind,value\n1,delay,2.5\n")
        with pytest.raises(ValidationError, match="^leg 1: empty service sample$") as info:
            load_scenario(FIVE_LEG, str(csv_path))
        assert info.value.leg == 0

    def test_csv_leg_outside_plan(self, tmp_path):
        csv_path = tmp_path / "obs.csv"
        csv_path.write_text("leg,kind,value\n9,delay,1.0\n")
        with pytest.raises(ValidationError):
            load_scenario(FIVE_LEG, str(csv_path))

    def test_csv_unknown_kind(self, tmp_path):
        csv_path = tmp_path / "obs.csv"
        csv_path.write_text("leg,kind,value\n1,turnaround,1.0\n")
        with pytest.raises(ParseError, match=r"obs\.csv:2: kind 'turnaround'$"):
            load_scenario(TWO_LEG, str(csv_path))

    def test_csv_bad_header(self, tmp_path):
        csv_path = tmp_path / "obs.csv"
        csv_path.write_text("leg,value\n1,1.0\n")
        with pytest.raises(ParseError):
            load_scenario(TWO_LEG, str(csv_path))

    def test_mixed_leg_sides_rejected(self, tmp_path):
        doc = {
            "intervals": [10.0],
            "legs": [{
                "delay": {"exponential": {"rate": 0.1}},
                "service": {"samples": [1.0]},
            }],
        }
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_scenario(str(path))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(str(path))


class TestEstimateCommand:
    def test_json_fields_and_determinism(self, capsys):
        argv = ["estimate", TWO_LEG, "--resamples", "40", "--seed", "7"]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert report["r"] == 40 and report["seed"] == 7
        assert report["theta_star"] == report["success_count"] / 40

    def test_workers_do_not_change_output(self, capsys):
        base = ["estimate", TWO_LEG, "--resamples", "64", "--seed", "3"]
        _, out1, _ = run_cli(base + ["--workers", "1"], capsys)
        _, out4, _ = run_cli(base + ["--workers", "4"], capsys)
        assert out1 == out4

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["estimate", TWO_LEG, "--resamples", "10", "--seed", "1",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "theta_star,r,seed,success_count"
        assert row.split(",")[1:3] == ["10", "1"]

    def test_env_seed_default_and_flag_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("CIRCREL_SEED", "99")
        _, out, _ = run_cli(["estimate", TWO_LEG, "--resamples", "5"], capsys)
        assert json.loads(out)["seed"] == 99
        _, out, _ = run_cli(["estimate", TWO_LEG, "--resamples", "5", "--seed", "2"], capsys)
        assert json.loads(out)["seed"] == 2

    def test_missing_samples_exit_3(self, capsys):
        code, out, err = run_cli(["estimate", FIVE_LEG, "--resamples", "5"], capsys)
        assert code == 3
        assert out == "" and "leg 1" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(["estimate", "/nonexistent.json"], capsys)
        assert code == 2 and err


class TestVarianceCommand:
    def test_reference_configuration(self, capsys):
        code, out, _ = run_cli(
            ["variance", FIVE_LEG, "--resamples", "50", "--sample-size", "20"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["variance"] - 0.0124) < 1e-4
        assert report["kernel_mode"] == "closed_form"
        assert len(report["per_leg_h"]) == 5
        assert report["per_leg_h"][0]["both"]["method"] == "closed_form"

    def test_round_trip(self, capsys):
        _, out, _ = run_cli(
            ["variance", FIVE_LEG, "--resamples", "50", "--sample-size", "20"],
            capsys,
        )
        report = json.loads(out)
        again = json.loads(json.dumps(report))
        assert again == report

    def test_single_realization_is_bernoulli(self, capsys):
        _, out, _ = run_cli(
            ["variance", FIVE_LEG, "--resamples", "1", "--sample-size", "20"],
            capsys,
        )
        report = json.loads(out)
        theta = report["theta"]
        assert report["variance"] == pytest.approx(theta * (1 - theta), rel=1e-12)

    def test_methods_agree(self, capsys):
        base = ["variance", FIVE_LEG, "--resamples", "50", "--sample-size", "20"]
        _, out_f, _ = run_cli(base + ["--method", "factorized"], capsys)
        _, out_e, _ = run_cli(base + ["--method", "enumerate"], capsys)
        assert abs(json.loads(out_f)["mu11"] - json.loads(out_e)["mu11"]) < 1e-12

    def test_plugin_mode_on_samples(self, capsys):
        code, out, _ = run_cli(
            ["variance", TWO_LEG, "--resamples", "10", "--mode", "plugin"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert 0.0 <= report["variance"] <= 0.25

    def test_every_pair_fits_mu11_is_one(self, tmp_path, capsys):
        path = tmp_path / "fits.json"
        path.write_text(json.dumps({
            "intervals": [1],
            "legs": [{"delay": {"samples": [0, 0, 0]},
                      "service": {"samples": [0] * 6}}],
        }))
        code, out, err = run_cli(
            ["variance", str(path), "--mode", "plugin", "-r", "5"], capsys
        )
        assert code == 0, err
        assert json.loads(out)["mu11"] == 1.0

    def test_sizes_required_for_rates_exit_2(self, capsys):
        code, _, err = run_cli(["variance", FIVE_LEG, "--resamples", "50"], capsys)
        assert code == 2 and "sample sizes" in err


class TestSweepCommand:
    def test_reference_grid_shape(self, capsys):
        code, out, _ = run_cli(
            ["sweep", FIVE_LEG, "--t-grid", "20:300:40", "--resamples", "50",
             "--sample-size", "20"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,theta,mu11,variance"
        assert len(lines) == 9
        assert [float(l.split(",")[0]) for l in lines[1:]] == [
            20.0, 60.0, 100.0, 140.0, 180.0, 220.0, 260.0, 300.0
        ]

    def test_single_point_matches_variance_command(self, capsys):
        _, sweep_out, _ = run_cli(
            ["sweep", FIVE_LEG, "--t-grid", "140:140:1", "--resamples", "50",
             "--sample-size", "20"],
            capsys,
        )
        _, var_out, _ = run_cli(
            ["variance", FIVE_LEG, "--resamples", "50", "--sample-size", "20"],
            capsys,
        )
        row = sweep_out.strip().splitlines()[1].split(",")
        report = json.loads(var_out)
        assert float(row[1]) == report["theta"]
        assert float(row[2]) == report["mu11"]
        assert float(row[3]) == report["variance"]

    def test_plugin_decimal_ties_stay_in_range(self, capsys):
        # Grid points such as 39.8 make x + y = t ties between sample values.
        code, out, _ = run_cli(
            ["sweep", TWO_LEG, "--t-grid", "39:40:0.1", "--mode", "plugin"], capsys
        )
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        assert len(rows) == 11
        for _, theta, _, variance in rows:
            spread = theta * (1.0 - theta)
            assert spread / 50 - 1e-13 <= variance <= spread + 1e-13

    def test_upper_tail_mu11_stays_in_range(self, capsys):
        code, out, err = run_cli(
            ["sweep", FIVE_LEG, "--sample-size", "5", "--t-grid", "5000:6000:1000"],
            capsys,
        )
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [float(t) for t, *_ in rows] == [5000.0, 6000.0]
        assert all(0.0 <= float(mu11) <= 1.0 for _, _, mu11, _ in rows)
        assert float(rows[0][2]) == 1.0

    def test_bad_grid_exit_2(self, capsys):
        for grid in ("300:20:40", "20:300:0", "20:300", "a:b:c"):
            code, _, err = run_cli(
                ["sweep", FIVE_LEG, "--t-grid", grid, "--sample-size", "20"], capsys
            )
            assert code == 2, grid

    @pytest.mark.parametrize("flags, message", [
        (["--sample-size", "20", "-r", "0"], "realization count 0 must be >= 1"),
        ([], "leg 1: sample sizes required when a leg carries no samples"),
        # Beyond the double range, as inf is: bad input, not an OverflowError.
        (["--sample-size", "20", "-r", str(10**400)],
         f"realization count {10**400} must be finite"),
        (["--sample-size", str(10**400)], f"--sample-size {10**400} must be finite"),
    ])
    def test_bad_first_point_writes_no_header(self, flags, message, capsys):
        # The first point runs the variance command's checks before any output.
        expected = (2, "", f"circrel: {message}\n")
        assert run_cli(["variance", FIVE_LEG, *flags], capsys) == expected
        assert run_cli(["sweep", FIVE_LEG, *flags, "--t-grid", "1:2:1"], capsys) == expected


class TestVerifyCommand:
    def test_exact_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "exact"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])
        assert len(payload["checks"]) == 24

    def test_kernels_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "kernels"], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_verify_byte_identical(self, capsys):
        _, out1, _ = run_cli(["verify", "--suite", "exact", "--seed", "5"], capsys)
        _, out2, _ = run_cli(["verify", "--suite", "exact", "--seed", "5"], capsys)
        assert out1 == out2

    @pytest.mark.parametrize("flag, env", [
        (["--seed", "-1"], None), ([], "-5"), (["--seed", str(2**64)], None)])
    def test_negative_seed_exit_2(self, flag, env, capsys, monkeypatch):
        # Exit 1 would read as a failed check; every suite checks the seed.
        if env is not None:
            monkeypatch.setenv("CIRCREL_SEED", env)
        seed = flag[-1] if flag else env
        for suite in ("exact", "kernels", "montecarlo"):
            argv = ["verify", "--suite", suite, "--replications", "10", *flag]
            code, out, err = run_cli(argv, capsys)
            assert (code, out, err) == (2, "", f"circrel: seed {seed} must fit in 64 bits\n")

    def test_failed_check_exit_1(self, capsys, monkeypatch):
        from circrel.verify import CheckResult

        monkeypatch.setattr(
            "circrel.cli.run_suite",
            lambda *a, **k: [CheckResult("forced", False, 1.0, 0.5)],
        )
        code, out, _ = run_cli(["verify", "--suite", "exact"], capsys)
        assert code == 1
        assert json.loads(out)["passed"] is False


def test_numeric_failure_exit_4(capsys, monkeypatch):
    from circrel.errors import QuadratureNonConvergence

    def exhausted(*args, **kwargs):
        raise QuadratureNonConvergence(0.5, 1e-3, 10**6)

    monkeypatch.setattr("circrel.cli.variance_pipeline", exhausted)
    code = main(["variance", FIVE_LEG, "--sample-size", "20"])
    err = capsys.readouterr().err
    assert code == 4
    assert "quadrature" in err


EXP_LEG = {
    "delay": {"exponential": {"rate": 0.1}},
    "service": {"exponential": {"rate": 0.2}},
}


@pytest.mark.parametrize("scenario, samples_csv", [
    pytest.param({"intervals": 5, "legs": [EXP_LEG]}, None, id="intervals-number"),
    pytest.param({"intervals": ["a"], "legs": [EXP_LEG]}, None, id="interval-text"),
    pytest.param({"intervals": [True], "legs": [EXP_LEG]}, None, id="interval-bool"),
    pytest.param(
        {"intervals": [10], "legs": [{**EXP_LEG, "delay": {"exponential": {"rate": "x"}}}]},
        None, id="rate-text",
    ),
    pytest.param(
        {"intervals": [10], "legs": [{**EXP_LEG, "service": {"exponential": {"rate": True}}}]},
        None, id="rate-bool",
    ),
    pytest.param(
        {"intervals": [10], "legs": [{"delay": {"samples": [1, None]},
                                      "service": {"samples": [2]}}]},
        None, id="sample-null",
    ),
    pytest.param("directory", None, id="directory"),
    pytest.param(b"\xff\xfe\x00{", None, id="binary-scenario"),
    pytest.param({"intervals": [10], "legs": [EXP_LEG]}, b"\xff\xfe\x00", id="binary-csv"),
])
def test_bad_input_exit_2(tmp_path, capsys, scenario, samples_csv):
    path = tmp_path / "scenario.json"
    if scenario == "directory":
        path.mkdir()
    elif isinstance(scenario, bytes):
        path.write_bytes(scenario)
    else:
        path.write_text(json.dumps(scenario))
    argv = ["variance", str(path), "--sample-size", "5"]
    if samples_csv is not None:
        csv_path = tmp_path / "obs.csv"
        csv_path.write_bytes(samples_csv)
        argv += ["--samples", str(csv_path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("circrel:")


@pytest.mark.parametrize("scenario, message", [
    pytest.param({"intervals": ["nan"], "legs": [EXP_LEG]}, "leg 1: interval nan",
                 id="interval-nan"),
    pytest.param({"intervals": [10, 10], "legs": [EXP_LEG, {
        "delay": {"samples": [1.0]}, "service": {"samples": [-1]}}]},
                 "leg 2: service sample value -1.0", id="negative-sample"),
])
def test_validation_messages_number_legs_from_1(tmp_path, capsys, scenario, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, err = run_cli(["variance", str(path), "--sample-size", "5"], capsys)
    assert (code, out) == (2, "")
    assert message in err


def test_module_entry_point_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-m", "circrel", "estimate", TWO_LEG,
         "--resamples", "12", "--seed", "4"],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["r"] == 12
