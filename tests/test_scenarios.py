"""Scenario registry, defaults handling, report determinism, and the CLI."""

import json
import math

import numpy as np
import pytest

from convlab.cli import main
from convlab.errors import InvalidParam, UnknownScenario
from convlab.prekopa import ConvexityReport
from convlab.scenarios import (
    DEFAULTS_VERSION,
    Check,
    RunReport,
    _max_error,
    list_scenarios,
    load_defaults,
    run_scenario,
    scenario_names,
)

ALL_NAMES = [
    "prekopa-cex",
    "twisted-nonconvex",
    "lemma1",
    "min-principle",
    "berndtsson-cex",
    "lemma2",
    "lemma3",
    "midpoint-probe",
    "disc-distance",
    "psh-delta",
]


def write_defaults(tmp_path, monkeypatch, mutate=None, version=DEFAULTS_VERSION):
    """Copy the shipped defaults, optionally mutate them, point the env at it."""
    data = json.loads(json.dumps(load_defaults()))  # deep copy
    data["version"] = version
    if mutate is not None:
        mutate(data["scenarios"])
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(data))
    monkeypatch.setenv("CONVLAB_DEFAULTS", str(path))
    return path


class TestRegistry:
    def test_names_and_summaries(self):
        assert scenario_names() == ALL_NAMES
        listed = dict(list_scenarios())
        assert set(listed) == set(ALL_NAMES)
        assert all(listed[n] for n in ALL_NAMES)

    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenario):
            run_scenario("no-such")

    def test_report_shape(self):
        rep = run_scenario("min-principle")
        assert isinstance(rep, RunReport)
        assert rep.scenario == "min-principle"
        assert rep.passed
        assert all(c.passed for c in rep.checks)
        assert rep.wall_time >= 0.0

    def test_override_applies(self):
        rep = run_scenario("min-principle", {"value_tol": 1e-5})
        assert rep.params["value_tol"] == 1e-5
        assert rep.passed

    def test_unknown_override_rejected(self):
        with pytest.raises(InvalidParam):
            run_scenario("min-principle", {"bogus": 1})

    def test_failing_gate_flips_the_verdict(self):
        rep = run_scenario("min-principle", {"min_violation": 10.0})
        assert not rep.passed
        failed = [c for c in rep.checks if not c.passed]
        assert failed and "violation" in failed[0].name

    def test_an_infinite_fiber_infimum_meets_its_infinite_target(self):
        # at t = 1e200 both the infimum and t^2 - 1 are +inf; inf - inf is NaN
        rep = run_scenario("min-principle", {"inf_ts": [0.0, 1e200]})
        check = next(c for c in rep.checks if c.name == "fiber-infimum-convex-envelope")
        assert check.detail["rows"][1]["value"] == check.detail["rows"][1]["target"] == math.inf
        assert check.passed and rep.passed


@pytest.mark.parametrize("pairs, want", [
    ([(math.nan, 0.0), (0.0, 0.5)], math.nan),  # a NaN error is never hidden
    ([(math.inf, math.inf), (0.0, 0.5)], 0.5),  # equal infinities are no error
], ids=["nan", "inf"])
def test_max_error_is_the_same_in_either_order(pairs, want):
    for order in (pairs, pairs[::-1]):
        got, ref = zip(*order)
        assert repr(_max_error(got, ref)) == repr(want)


def _no_bare_constant(name):
    raise AssertionError(f"report JSON holds a bare {name}")


class TestReports:
    def test_json_is_deterministic_without_wall_time(self):
        a = run_scenario("min-principle").to_json(with_wall_time=False)
        b = run_scenario("min-principle").to_json(with_wall_time=False)
        assert a == b

    def test_wall_time_toggle(self):
        rep = run_scenario("min-principle")
        assert "wall_time" in rep.to_jsonable()
        assert "wall_time" not in rep.to_jsonable(with_wall_time=False)

    def test_json_round_trips(self):
        rep = run_scenario("min-principle")
        doc = json.loads(rep.to_json())
        assert doc["scenario"] == "min-principle"
        assert doc["passed"] is True
        assert all({"name", "passed", "detail"} <= set(c) for c in doc["checks"])

    def test_numpy_scalars_serialize(self):
        check = Check("numpy-verdict", np.float64(0.5) > 0.0, {"value": np.float64(0.25)})
        assert type(check.passed) is bool
        probe = ConvexityReport(checked=np.int64(3), skipped=0, worst_violation=math.inf,
                                witness=(-math.inf, 0.5, math.nan), tol=1e-9,
                                verdict=False)
        report = RunReport(scenario="x", params={"n": 3},
                           checks=(check, Check("report", False, {"probe": probe})),
                           passed=check.passed, wall_time=0.0)
        doc = json.loads(report.to_json(), parse_constant=_no_bare_constant)
        assert doc["checks"][0] == {"name": "numpy-verdict", "passed": True,
                                    "detail": {"value": 0.25}}
        assert doc["checks"][1]["detail"] == {"probe": {
            "checked": 3, "skipped": 0, "worst_violation": "inf",
            "witness": ["-inf", 0.5, "nan"], "tol": 1e-9, "verdict": False}}


class TestDefaults:
    def test_shipped_defaults_cover_every_scenario(self):
        assert set(load_defaults()["scenarios"]) == set(ALL_NAMES)

    def test_env_override_is_honoured(self, tmp_path, monkeypatch):
        def mutate(sc):
            sc["min-principle"]["value_tol"] = 2e-6
        write_defaults(tmp_path, monkeypatch, mutate)
        rep = run_scenario("min-principle")
        assert rep.params["value_tol"] == 2e-6

    def test_version_mismatch_rejected(self, tmp_path, monkeypatch):
        write_defaults(tmp_path, monkeypatch, version=DEFAULTS_VERSION + 1)
        with pytest.raises(InvalidParam):
            load_defaults()

    def test_missing_scenario_rejected(self, tmp_path, monkeypatch):
        def mutate(sc):
            del sc["lemma3"]
        write_defaults(tmp_path, monkeypatch, mutate)
        with pytest.raises(InvalidParam):
            load_defaults()

    def test_extra_scenario_rejected(self, tmp_path, monkeypatch):
        def mutate(sc):
            sc["lemma99"] = {}
        write_defaults(tmp_path, monkeypatch, mutate)
        with pytest.raises(InvalidParam):
            load_defaults()

    def test_non_object_parameters_rejected(self, tmp_path, monkeypatch):
        def mutate(sc):
            sc["lemma1"] = [1, 2]
        write_defaults(tmp_path, monkeypatch, mutate)
        with pytest.raises(InvalidParam):
            load_defaults()

    @pytest.mark.parametrize("scenario,key,value", [
        ("prekopa-cex", "grid_n", "501"),
        ("lemma3", "ks", [10, 30, 1.5]),
        ("prekopa-cex", "grid_n", True),  # a bool is never a number
        ("min-principle", "value_tol", False),
        ("berndtsson-cex", "psh_radii", 0.05),
    ])
    def test_parameter_of_the_wrong_json_type_exits_three(
            self, tmp_path, monkeypatch, capsys, scenario, key, value):
        def mutate(sc):
            sc[scenario][key] = value
        write_defaults(tmp_path, monkeypatch, mutate)
        with pytest.raises(InvalidParam, match=key):
            load_defaults()
        assert main(["run", scenario]) == 3
        assert _one_line_error(capsys)

    @pytest.mark.parametrize("mutate", [
        lambda sc: sc["lemma3"].pop("degree"),
        lambda sc: sc["lemma3"].update(degre=8),
    ])
    def test_missing_or_unknown_parameter_rejected(self, tmp_path, monkeypatch, mutate):
        write_defaults(tmp_path, monkeypatch, mutate)
        with pytest.raises(InvalidParam, match="degre"):
            load_defaults()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_number_in_the_defaults_file_exits_three(
            self, tmp_path, monkeypatch, capsys, value):
        # json writes NaN and Infinity, which JSON itself does not have
        def mutate(sc):
            sc["prekopa-cex"]["value_tol"] = value
        write_defaults(tmp_path, monkeypatch, mutate)
        with pytest.raises(InvalidParam, match="not valid JSON"):
            load_defaults()
        assert main(["run", "prekopa-cex"]) == 3
        assert _one_line_error(capsys)

    @pytest.mark.parametrize("overrides", [{"value_tol": math.nan}, {"search_box": math.inf},
                                           {"ts": [0.0, -math.inf, 0.8]}])
    def test_a_non_finite_override_is_rejected(self, overrides):
        with pytest.raises(InvalidParam, match="does not have the JSON type"):
            run_scenario("min-principle", overrides)

    def test_a_float_may_be_written_as_an_int(self, tmp_path, monkeypatch):
        def mutate(sc):
            sc["min-principle"]["value_tol"] = 1
            sc["lemma1"]["frozen_values"] = [1, 0.5]
        write_defaults(tmp_path, monkeypatch, mutate)
        assert load_defaults()["scenarios"]["min-principle"]["value_tol"] == 1

    @pytest.mark.parametrize("overrides", [{"k": 64.0}, {"k": "64"}, {"k": True},
                                           {"ts": [0.0, "0.4", 0.8]}])
    def test_override_of_the_wrong_json_type_rejected(self, overrides):
        with pytest.raises(InvalidParam, match="does not have the JSON type"):
            run_scenario("min-principle", overrides)

    @pytest.mark.parametrize("scenario,overrides", [
        ("min-principle", {"ts": []}),
        ("min-principle", {"ts": [0.0, 0.4]}),
        ("min-principle", {"expected": [1.0, 0.84, 0.36, 0.0]}),
        ("lemma1", {"frozen_values": [0.875460923604]}),
        ("midpoint-probe", {"ball_p1": [0.5]}),
        ("midpoint-probe", {"ks": []}),
        ("lemma2", {"ks": [16, 32, 64]}),
        ("lemma3", {"frozen_lower": [1.01938803268867]}),
        ("psh-delta", {"radii": []}),
    ])
    def test_override_of_the_wrong_length_rejected(self, scenario, overrides):
        with pytest.raises(InvalidParam, match="value"):
            run_scenario(scenario, overrides)

    @pytest.mark.parametrize("scenario,key,value", [
        ("min-principle", "ts", []),
        ("lemma1", "frozen_values", [0.9, 0.9, 0.9]),
        ("midpoint-probe", "dumbbell_p0", [-1.0, 0.25, 0.0]),
        ("lemma3", "ks", [10, 30]),
        ("berndtsson-cex", "z_abs", []),
    ])
    def test_defaults_list_of_the_wrong_length_exits_three(
            self, tmp_path, monkeypatch, capsys, scenario, key, value):
        def mutate(sc):
            sc[scenario][key] = value
        write_defaults(tmp_path, monkeypatch, mutate)
        with pytest.raises(InvalidParam, match=key):
            load_defaults()
        assert main(["run", scenario]) == 3
        assert _one_line_error(capsys)


class TestCliRun:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_NAMES:
            assert name in out

    def test_run_pass_exits_zero(self, capsys):
        assert main(["run", "min-principle"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "min-principle: PASS" in out

    def test_json_to_stdout(self, capsys):
        assert main(["run", "min-principle", "--json", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenario"] == "min-principle"

    def test_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["run", "min-principle", "--json", str(target)]) == 0
        assert json.loads(target.read_text())["passed"] is True

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        assert main(["run", "no-such"]) == 3
        assert "no scenario" in capsys.readouterr().err

    def test_missing_name_is_a_usage_error(self, capsys):
        assert main(["run"]) == 3

    def test_name_plus_all_is_a_usage_error(self, capsys):
        assert main(["run", "lemma1", "--all"]) == 3

    def test_bad_subcommand(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_check_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        def mutate(sc):
            sc["min-principle"]["min_violation"] = 10.0
        write_defaults(tmp_path, monkeypatch, mutate)
        assert main(["run", "min-principle"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_numerical_error_exits_two(self, tmp_path, monkeypatch, capsys):
        # a probe circle of radius 1.5 leaves the bidisc, which surfaces as a
        # domain error from inside the computation, not a usage error
        def mutate(sc):
            sc["psh-delta"]["witness_radius"] = 1.5
        write_defaults(tmp_path, monkeypatch, mutate)
        assert main(["run", "psh-delta"]) == 2
        assert "numerical failure" in capsys.readouterr().err


def _one_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


class TestCliBadFiles:
    def test_defaults_holding_a_list(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "defaults.json"
        path.write_text("[1, 2, 3]")
        monkeypatch.setenv("CONVLAB_DEFAULTS", str(path))
        assert main(["run", "lemma1"]) == 3
        assert _one_line_error(capsys)

    def test_malformed_defaults(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "defaults.json"
        path.write_text('{"version": 1,')
        monkeypatch.setenv("CONVLAB_DEFAULTS", str(path))
        assert main(["run", "lemma1"]) == 3
        assert _one_line_error(capsys)

    def test_missing_defaults_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CONVLAB_DEFAULTS", str(tmp_path / "absent.json"))
        assert main(["run", "lemma1"]) == 3
        assert _one_line_error(capsys)

    def test_unwritable_json_path(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "report.json"
        assert main(["run", "min-principle", "--json", str(target)]) == 3
        assert "cannot write" in capsys.readouterr().err


class TestCliTools:
    def test_marginal_prints_summary(self, capsys):
        code = main(["marginal", "--eps", "0.1", "--lo", "-0.2", "--hi", "0.2", "--n", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "samples: 5" in out
        assert "convex: yes" in out

    def test_marginal_writes_csv(self, tmp_path, capsys):
        target = tmp_path / "curve.csv"
        code = main([
            "marginal", "--eps", "0.1", "--lo", "-0.2", "--hi", "0.2",
            "--n", "5", "--csv", str(target),
        ])
        assert code == 0
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "t,value"
        assert len(lines) == 6

    def test_bergman_reports_masses(self, capsys):
        assert main(["bergman", "--eps", "0.3", "--z", "0.0", "0.15", "--moments", "1"]) == 0
        out = capsys.readouterr().out
        assert "divergent" in out

    def test_check_convex_accepts(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        ts = [0.1 * i for i in range(11)]
        path.write_text("t,value\n" + "\n".join(f"{t},{t * t}" for t in ts) + "\n")
        assert main(["check-convex", str(path)]) == 0

    def test_check_convex_flags_a_dent(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        ts = [0.1 * i for i in range(11)]
        vals = [t * t for t in ts]
        vals[5] += 1.0
        path.write_text("t,value\n" + "\n".join(f"{t},{v}" for t, v in zip(ts, vals)) + "\n")
        assert main(["check-convex", str(path)]) == 1

    def test_check_convex_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,2\n")
        assert main(["check-convex", str(path)]) == 3

    def test_check_psh(self, capsys):
        code = main([
            "check-psh", "--eps", "0.3", "--centers", "5",
            "--radii", "0.05", "--angles", "512", "--seed", "7",
        ])
        assert code == 0

    @pytest.mark.parametrize("centers", ["0", "-1"])
    def test_check_psh_needs_a_center(self, centers, capsys):
        assert main(["check-psh", "--centers", centers]) == 3
        assert _one_line_error(capsys)

    def test_marginal_rejects_nan_tol(self, capsys):
        assert main(["marginal", "--n", "5", "--tol", "nan"]) == 3
        assert _one_line_error(capsys)

    def test_check_psh_rejects_nan_tol(self, capsys):
        assert main(["check-psh", "--centers", "1", "--tol", "nan"]) == 3
        assert _one_line_error(capsys)

    def test_check_psh_rejects_a_nan_radius(self, capsys):
        assert main(["check-psh", "--centers", "1", "--radii", "nan"]) == 3
        assert "radii" in capsys.readouterr().err

    def test_check_convex_rejects_nan_tol(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        path.write_text("t,value\n0,0\n1,1\n2,4\n")
        assert main(["check-convex", str(path), "--tol", "nan"]) == 3
        assert _one_line_error(capsys)

    @pytest.mark.parametrize("row", ["nan,0", "inf,0"])
    def test_check_convex_rejects_a_non_finite_grid_point(self, tmp_path, capsys, row):
        path = tmp_path / "curve.csv"
        path.write_text(f"t,value\n0,0\n1,1\n{row}\n")
        assert main(["check-convex", str(path)]) == 3
        assert _one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["marginal", "--hi=inf"],
        ["marginal", "--lo=-inf"],
        ["marginal", "--lo=-1e308", "--hi=1e308"],  # hi - lo overflows
    ])
    def test_marginal_needs_a_finite_range(self, argv, capsys):
        assert main(argv) == 3
        assert _one_line_error(capsys)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_marginal_out_to_a_huge_finite_end_warns_nothing(self, capsys):
        # the weight overflows to +inf there, and its density is 0
        assert main(["marginal", "--n=5", "--hi=1e308"]) in (0, 1)

    def test_check_psh_rejects_a_negative_seed(self, capsys):
        assert main(["check-psh", "--centers", "1", "--seed=-1"]) == 3
        assert _one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["check-psh", "--centers", "1", "--angles", "1000000000000000000"],
        ["marginal", "--n", "1000000000000000000"],
    ])
    def test_a_size_too_large_to_allocate_exits_three(self, argv, capsys):
        # 10^18 eight-byte numbers exceed the address space: allocation fails at
        # once, without touching memory
        assert main(argv) == 3
        assert _one_line_error(capsys)

    def test_bergman_rejects_nan_base_point(self, capsys):
        assert main(["bergman", "--z", "nan"]) == 3
        assert _one_line_error(capsys)

    def test_bergman_rejects_a_base_point_whose_square_overflows(self, capsys):
        assert main(["bergman", "--z", "1e200"]) == 3
        assert _one_line_error(capsys)

    def test_bergman_reports_an_underflowing_mass_as_numerical(self, capsys):
        assert main(["bergman", "--z", "1e154"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
