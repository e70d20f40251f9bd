import json
import subprocess
import sys

import pytest

from conesum.cli import main
from conesum.config import build_config
from conesum.errors import (
    ConfigError,
    NotAUnit,
    NotTotallyPositive,
    UnitDoesNotPreserveM,
    ZeroInput,
)

SQRT3_CONFIG = {
    "field": {"min_poly": [-3, 0, 1]},
    "module": {
        "basis": [["1", "0"], ["0", "1/3"]],
        "rho": ["0", "0"],
        "units": [["2", "1"]],
    },
    "fan": {"type": "quadratic-auto"},
    "x0": ["3", "1"],
    "N_max": 8,
    "tolerance": 1e-6,
    "precision_bits": 128,
    "seed": 0,
    "format": "csv",
}

CUBIC_CONFIG = {
    "field": {"min_poly": [1, -2, -1, 1]},
    "module": {
        "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "rho": ["0", "0", "0"],
        "units": [["0", "0", "1"], ["1", "-2", "1"]],
    },
    "unitsearch": {"a": "13/10", "b": "5/2", "radius": 4, "window": 3},
    "seed": 0,
    "format": "json",
}


@pytest.fixture
def sqrt3_cfg(tmp_path):
    path = tmp_path / "sqrt3.json"
    path.write_text(json.dumps(SQRT3_CONFIG))
    return str(path)


@pytest.fixture
def cubic_cfg(tmp_path):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(CUBIC_CONFIG))
    return str(path)


class TestConverge:
    def test_csv_output_and_exit_zero(self, sqrt3_cfg, capsys):
        code = main(["converge", sqrt3_cfg])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,partial_sum_decimal,target_decimal,abs_error"
        assert lines[1].startswith("1,")
        final_err = float(lines[-1].split(",")[-1])
        assert final_err < 1e-6

    def test_json_output_has_exact_strings(self, sqrt3_cfg, capsys):
        code = main(["converge", sqrt3_cfg, "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["target"] == "1/6"
        assert payload["rows"][0]["partial_sum"] == "4/5/√12"

    def test_non_totally_positive_x0_exits_2(self, sqrt3_cfg, capsys):
        code = main(["converge", sqrt3_cfg, "--x0", "0,1"])
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err)["kind"] == "config"

    @pytest.mark.parametrize(
        "command, x0",
        [(["converge"], "0,0"), (["verify", "lemma1"], "0,0"), (["verify", "lemma1"], "0,1")],
        ids=["converge-zero", "lemma1-zero", "lemma1-not-positive"],
    )
    def test_zero_or_non_totally_positive_x0_is_a_config_error(
        self, sqrt3_cfg, capsys, command, x0
    ):
        # is_totally_positive raises ZeroInput on 0; lemma1 reached partial_sum
        code = main([*command, sqrt3_cfg, "--x0", x0])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "x0 must be totally positive",
            "kind": "config",
        }

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_nan_tolerance_exits_2(self, tmp_path, capsys, where):
        cfg = dict(SQRT3_CONFIG, tolerance=float("nan"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg if where == "config" else SQRT3_CONFIG))
        flags = ["--tol", "nan"] if where == "flag" else []
        code = main(["converge", str(path), *flags])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "tolerance must be a nonnegative number"

    def test_singular_x0_names_the_vanishing_pairing(self, sqrt3_cfg, capsys):
        # 2 + sqrt3 lies on the edge ray of window 1; its star group's first
        # base makes one simplex pair to zero with the point 1 - (2/3) sqrt3
        code = main(["converge", sqrt3_cfg, "--x0", "2,1"])
        assert code == 1
        assert capsys.readouterr().err == (
            '{"error": "pairing with FieldElement(Fraction(1, 1), Fraction(-2, 3)) '
            'vanishes at the evaluation point", "kind": "SingularAtX0"}\n'
        )

    def test_unreachable_tolerance_exits_1(self, sqrt3_cfg, capsys):
        code = main(["converge", sqrt3_cfg, "--N-max", "2", "--tol", "1e-9"])
        capsys.readouterr()
        assert code == 1

    def test_deterministic_output(self, sqrt3_cfg, capsys):
        main(["converge", sqrt3_cfg, "--format", "json"])
        first = capsys.readouterr().out
        main(["converge", sqrt3_cfg, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_missing_config_exits_2(self, capsys):
        code = main(["converge", "/nonexistent/config.json"])
        assert code == 2

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["converge", str(bad)]) == 2

    def test_dependent_module_basis_exits_2(self, tmp_path):
        cfg = json.loads(json.dumps(SQRT3_CONFIG))
        cfg["module"]["basis"] = [["1", "0"], ["2", "0"]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "conesum.cli", "verify", "satake", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["kind"] == "config"

    @pytest.mark.parametrize(
        "unit, cause",
        [([["4", "2"]], NotAUnit), ([["-2", "-1"]], NotTotallyPositive)],
        ids=["two-eps", "negative"],
    )
    def test_bad_module_unit_exits_2(self, tmp_path, capsys, unit, cause):
        # as the same unit in an explicit fan's unit action (TestExplicitFanUnits)
        cfg = json.loads(json.dumps(SQRT3_CONFIG))
        cfg["module"]["units"] = unit
        with pytest.raises(ConfigError) as info:
            build_config(cfg)
        assert isinstance(info.value.__cause__, cause)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["converge", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"

    @pytest.mark.parametrize("key, message", [
        ("N_max", "N_max must be an integer >= 1"),
        ("seed", "seed must be an integer >= 0"),
        ("tolerance", "tolerance must be a nonnegative number"),
    ], ids=["N_max", "seed", "tolerance"])
    def test_boolean_number_exits_2(self, tmp_path, capsys, key, message):
        # true was read as 1: one window, seed 1, or tolerance 1.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(SQRT3_CONFIG, **{key: True})))
        code = main(["converge", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err) == {"error": message, "kind": "config"}

    def test_boolean_min_poly_exits_2(self, tmp_path, capsys):
        # [-3, false, true] was read as x^2 - 3
        cfg = dict(SQRT3_CONFIG, field={"min_poly": [-3, False, True]})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["converge", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err) == {
            "error": "min_poly must be an ascending monic integer list", "kind": "config"
        }

    def test_bad_min_poly_exits_2(self, tmp_path, capsys):
        cfg = dict(SQRT3_CONFIG)
        cfg["field"] = {"min_poly": [1, 0, 1]}  # complex roots
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["converge", str(path)]) == 2


class TestVerify:
    def test_goodfan_passes(self, sqrt3_cfg, capsys):
        code = main(["verify", "goodfan", sqrt3_cfg])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out

    def test_goodfan_json_report_shape(self, sqrt3_cfg, capsys):
        code = main(["verify", "goodfan", sqrt3_cfg, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["suite"] == "goodfan"
        assert payload["seed"] == 0
        assert all({"name", "pass"} <= set(r) for r in payload["results"])

    def test_lemma1_passes(self, sqrt3_cfg, capsys):
        code = main(["verify", "lemma1", sqrt3_cfg])
        capsys.readouterr()
        assert code == 0

    def test_unknown_suite_exits_2(self, sqrt3_cfg, capsys):
        code = main(["verify", "nosuchsuite", sqrt3_cfg])
        capsys.readouterr()
        assert code == 2

    def test_failing_suite_exits_1(self, tmp_path, capsys):
        cfg = {
            "field": {"min_poly": [-3, 0, 1]},
            "module": SQRT3_CONFIG["module"],
            # two overlapping cones: the fan validation must fail
            "fan": {
                "type": "explicit",
                "cones": [
                    [["1", "0"], ["1", "1"]],
                    [["2", "1"], ["0", "1"]],
                ],
                "unit_action": [],
            },
            "seed": 0,
        }
        path = tmp_path / "bad_fan.json"
        path.write_text(json.dumps(cfg))
        code = main(["verify", "goodfan", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("seed", [3265, 15201])
    def test_hurwitz_meets_its_tolerance_at_spread_seeds(self, sqrt3_cfg, capsys, seed):
        # seeds whose instances spread their pairings widely
        code = main(["verify", "hurwitz", sqrt3_cfg, "--seed", str(seed), "--format", "json"])
        (result,) = json.loads(capsys.readouterr().out)["results"]
        assert code == 0
        worst = float(result["detail"].split("= ")[1].split(" at")[0])
        assert worst <= 1e-8

    def test_lemma3_revalidates_found_set(self, cubic_cfg, capsys):
        code = main(["verify", "lemma3", cubic_cfg, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert all(r["pass"] for r in payload["results"])


class TestExplicitFanUnits:
    """An explicit fan's unit action is checked as module units are."""

    def config(self, basis, module_units, unit_action):
        return {
            "field": {"min_poly": [-3, 0, 1]},
            "module": {"basis": basis, "units": module_units},
            "fan": {
                "type": "explicit",
                "cones": [[["1", "0"], ["2", "1"]]],
                "unit_action": unit_action,
            },
        }

    @pytest.mark.parametrize(
        "basis, module_units, unit_action, cause",
        [
            # 2*eps, eps = 2 + sqrt3: norm 4
            (SQRT3_CONFIG["module"]["basis"], [["2", "1"]], [["4", "2"]], NotAUnit),
            (SQRT3_CONFIG["module"]["basis"], [["2", "1"]], [["-2", "-1"]], NotTotallyPositive),
            # eps maps 1 out of Z[2 sqrt3]; eps^2 = 7 + 4 sqrt3 preserves it
            ([["1", "0"], ["0", "2"]], [["7", "4"]], [["2", "1"]], UnitDoesNotPreserveM),
        ],
        ids=["two-eps", "negative", "off-lattice"],
    )
    def test_bad_unit_action_rejected(self, tmp_path, capsys, basis, module_units, unit_action, cause):
        cfg = self.config(basis, module_units, unit_action)
        with pytest.raises(ConfigError) as info:
            build_config(cfg)
        assert isinstance(info.value.__cause__, cause)
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "goodfan", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"

    @pytest.mark.parametrize(
        "module_units, unit_action",
        [([["0", "0"]], [["2", "1"]]), ([["2", "1"]], [["0", "0"]])],
        ids=["module-unit", "unit-action"],
    )
    def test_zero_unit_is_not_a_unit(self, tmp_path, capsys, module_units, unit_action):
        # the frame's own cause, not the ZeroInput of a total-positivity test
        cfg = self.config(SQRT3_CONFIG["module"]["basis"], module_units, unit_action)
        with pytest.raises(ConfigError) as info:
            build_config(cfg)
        assert isinstance(info.value.__cause__, NotAUnit)
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "goodfan", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"

    def test_empty_cone_rejected(self, tmp_path, capsys):
        # an explicit cone with no generators: a config error, not a traceback
        cfg = {
            "field": {"min_poly": [-3, 0, 1]},
            "fan": {"type": "explicit", "cones": [[]], "unit_action": [["2", "1"]]},
            "x0": ["7", "1"],
        }
        with pytest.raises(ConfigError, match="nonempty"):
            build_config(cfg)
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(cfg))
        assert main(["converge", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"

    def test_zero_cone_generator_rejected(self, tmp_path, capsys):
        # Cone's ZeroInput is a config error, as a bad unit action is
        cfg = dict(self.config(SQRT3_CONFIG["module"]["basis"], [["2", "1"]], [["2", "1"]]),
                   x0=["7", "1"])
        cfg["fan"]["cones"] = [[["0", "0"], ["1", "0"]]]
        with pytest.raises(ConfigError, match="^bad fan cones: ") as info:
            build_config(cfg)
        assert isinstance(info.value.__cause__, ZeroInput)
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(cfg))
        assert main(["converge", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"

    def test_units_preserving_m_accepted(self):
        basis = SQRT3_CONFIG["module"]["basis"]
        for unit_action in ([], [["2", "1"]], [["7", "4"]]):
            fan = build_config(self.config(basis, [["2", "1"]], unit_action)).fan
            assert len(fan.units) == len(unit_action)


class TestUnitsearch:
    def test_finds_candidate(self, cubic_cfg, capsys):
        code = main(["unitsearch", cubic_cfg])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["found"] is True
        assert len(payload["units"]) == 3
        assert payload["bound_conditions"]["passed"]
        assert payload["limit_pair_conditions"]["passed"]
        for chart in payload["charts"]:
            assert chart["vertices_certified"]
            assert all(lo > 0 for lo, _ in chart["exponent_intervals"])

    def test_radius_zero_exits_3(self, cubic_cfg, capsys):
        code = main(["unitsearch", cubic_cfg, "--radius", "0"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["found"] is False

    @pytest.mark.parametrize(
        "params, flags, message",
        [
            ({"window": 0}, [], "unitsearch window must be an integer >= 1"),
            ({"window": -1}, [], "unitsearch window must be an integer >= 1"),
            ({"radius": -1}, [], "unitsearch radius must be an integer >= 0"),
            ({}, ["--radius", "-1"], "unitsearch radius must be an integer >= 0"),
        ],
        ids=["window-0", "window-negative", "radius-negative", "radius-flag-negative"],
    )
    def test_vacuous_search_box_exits_2(self, tmp_path, capsys, params, flags, message):
        # window 0 charted no points and certified every chart; a negative
        # radius searched nothing and reported "not found"
        cfg = json.loads(json.dumps(CUBIC_CONFIG))
        cfg["unitsearch"].update(params)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["unitsearch", str(path), *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err) == {"error": message, "kind": "config"}

    @pytest.mark.parametrize("a, b", [("3", "2"), ("1", "5/2"), ("2", "2")])
    def test_bad_bounds_exit_2(self, cubic_cfg, capsys, a, b):
        code = main(["unitsearch", cubic_cfg, "--a", a, "--b", b])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["kind"] == "config"
        assert "b > a > 1" in err["error"]

    @pytest.mark.parametrize("command, message", [
        (["unitsearch"], "unitsearch needs a module with unit generators"),
        (["verify", "lemma3"], "the admissibility suite needs a module with units"),
    ], ids=["unitsearch", "lemma3"])
    def test_no_unit_generators_exits_2(self, tmp_path, capsys, command, message):
        # the search ran and ended in UnitRankMismatch, exit 1
        cfg = json.loads(json.dumps(CUBIC_CONFIG))
        cfg["module"]["units"] = []
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([*command, str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err) == {"error": message, "kind": "config"}

    def test_quadratic_field_exits_1_with_record(self, sqrt3_cfg, capsys):
        code = main(["unitsearch", sqrt3_cfg])
        err = capsys.readouterr().err
        assert code == 1
        assert json.loads(err)["kind"] == "DegreeTooSmall"


class TestConsoleScript:
    def test_entry_point_runs(self, sqrt3_cfg):
        proc = subprocess.run(
            [sys.executable, "-m", "conesum.cli", "converge", sqrt3_cfg],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("N,partial_sum_decimal")
