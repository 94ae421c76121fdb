import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from greenchain.cli import build_parser, main

PARAMS = {"v1": 0.04, "v2": 0.06, "C_Tax": 2.1, "C_CT": 2.1}
DECISIONS = {"T0": 0.6626, "xi1": 167.8651, "xi2": 93.6741,
             "G": 7.7565, "W_r": 292.28}


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "parameters": PARAMS,
        "policy": "tax",
        "seed": 7,
        "decisions": DECISIONS,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluate:
    def test_emits_every_field_group(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "--config", config_path, "evaluate")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"policy", "decisions", "schedule",
                            "costs_and_emissions", "base_profits",
                            "policy_result"}
        assert doc["schedule"]["T2"] > doc["schedule"]["T1"]
        assert doc["policy_result"]["feasible"] is True
        for key in ("SR_m", "PC_m", "HC_m1", "e_m6", "SR_r", "OC_r", "CarC_r"):
            assert key in doc["costs_and_emissions"]

    def test_byte_identical_reruns(self, capsys, config_path):
        _, out1, _ = run_cli(capsys, "--config", config_path, "evaluate")
        _, out2, _ = run_cli(capsys, "--config", config_path, "evaluate")
        assert out1 == out2

    def test_negative_demand_exit_code(self, capsys, config_path):
        code, _, err = run_cli(capsys, "--config", config_path,
                               "evaluate", "--W_r", "305")
        assert code == 2
        assert "negative demand" in err

    def test_flag_overrides_config(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "--config", config_path,
                               "evaluate", "--G", "0.5")
        assert json.loads(out)["decisions"]["G"] == 0.5

    def test_missing_decisions_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"parameters": PARAMS}))
        code, _, err = run_cli(capsys, "--config", str(path), "evaluate")
        assert code == 2 and "decision" in err


class TestOptimize:
    def test_zero_iterations_reports_initial_best(self, capsys, config_path,
                                                  tmp_path):
        out_dir = tmp_path / "art"
        for algo in ("de1", "pso"):
            code, out, _ = run_cli(capsys, "--config", config_path,
                                   "--out", str(out_dir), "optimize",
                                   "--algo", algo, "--iters", "0")
            assert code == 0
            doc = json.loads((out_dir / f"best_{algo}_tax_seed7.json").read_text())
            assert doc["evaluations"] == 50
            history = (out_dir / f"history_{algo}_tax_seed7.csv").read_text()
            assert len(history.strip().splitlines()) == 2  # header + one row

    def test_multi_seed_summary(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "art"
        code, out, _ = run_cli(capsys, "--config", config_path,
                               "--out", str(out_dir), "optimize",
                               "--algo", "pso", "--iters", "30",
                               "--seeds", "3")
        assert code == 0
        assert "summary:" in out
        summary = json.loads((out_dir / "summary_pso_tax.json").read_text())
        assert summary["seeds"] == 3
        assert summary["max"] >= summary["mean"]

    def test_seed_required(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"parameters": PARAMS, "policy": "tax"}))
        code, _, err = run_cli(capsys, "--config", str(path), "optimize",
                               "--algo", "pso", "--iters", "5")
        assert code == 2 and "seed" in err

    @pytest.mark.parametrize("flag", [["--seeds", "0"], ["--pop", "0"],
                                      ["--iters", "-1"]])
    def test_out_of_range_flag_is_usage_error(self, capsys, config_path, flag):
        code, out, err = run_cli(capsys, "--config", config_path, "optimize",
                                 "--algo", "pso", *flag)
        assert code == 2 and "error:" in err
        assert out == ""

    @pytest.mark.parametrize("option", [
        {"pop_size": "50"}, {"pop_size": 7.5}, {"max_iter": "10"},
        {"max_iter": 2.5}, {"penalty_coefficient": "big"}, {"Pc": "0.5"},
        {"m0": None}, {"penalty_double_every": True}])
    def test_mistyped_optimizer_option_is_usage_error(self, capsys, tmp_path,
                                                      option):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"parameters": PARAMS, "seed": 1,
                                    "optimizer": option}))
        code, out, err = run_cli(capsys, "--config", str(path), "optimize",
                                 "--algo", "pso")
        assert code == 2 and "error:" in err and next(iter(option)) in err
        assert out == ""

    def test_limited_policy_reports_feasibility(self, capsys, config_path,
                                                tmp_path):
        out_dir = tmp_path / "art"
        code, out, _ = run_cli(capsys, "--config", config_path,
                               "--policy", "limited", "--out", str(out_dir),
                               "optimize", "--algo", "pso", "--iters", "60")
        assert code == 0
        doc = json.loads((out_dir / "best_pso_limited_seed7.json").read_text())
        assert doc["feasible"] is True
        assert doc["constraint_violation"] == 0.0


class TestSensitivity:
    def test_sweep_writes_csv(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "art"
        code, out, _ = run_cli(capsys, "--config", config_path,
                               "--out", str(out_dir), "sensitivity",
                               "--param", "U1", "--iters", "20")
        assert code == 0
        with open(out_dir / "sweep_U1.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert {row["pct_change"] for row in rows} == \
            {"-40.0", "-20.0", "0.0", "20.0", "40.0"}
        assert all(row["phi_T"] for row in rows)

    def test_csv_column_set(self, capsys, config_path, tmp_path):
        from greenchain.sensitivity import SWEEP_CSV_COLUMNS

        out_dir = tmp_path / "art"
        code, _, _ = run_cli(capsys, "--config", config_path,
                             "--out", str(out_dir), "sensitivity",
                             "--param", "C_p", "--levels=-20,0,20",
                             "--no-reoptimize")
        assert code == 0
        lines = (out_dir / "sweep_C_p.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == list(SWEEP_CSV_COLUMNS)
        assert len(lines) == 4
        cells = [line.split(",")[1:] for line in lines[1:]]
        assert np.isfinite(np.array(cells, dtype=float)).all()
        assert not list(out_dir.glob("*.tmp"))


    def test_levels_help_example_parses(self, capsys, config_path):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        levels = next(a for a in sub.choices["sensitivity"]._actions
                      if "--levels" in a.option_strings)
        example = levels.help.split("e.g. ")[1]
        code, out, _ = run_cli(capsys, "--config", config_path, "sensitivity",
                               "--param", "C_p", example, "--no-reoptimize")
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()] == \
            ["-40.0%", "-20.0%", "+0.0%", "+20.0%", "+40.0%"]


class TestAnfis:
    def test_trains_and_writes_artifacts(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "art"
        code, out, _ = run_cli(capsys, "--config", config_path,
                               "--out", str(out_dir), "anfis",
                               "--variable", "T0", "--points", "21",
                               "--range", "0.2", "1.0", "--epochs", "5")
        assert code == 0
        model = json.loads((out_dir / "anfis_T0.json").read_text())
        assert len(model["mfs"]) == 5
        with open(out_dir / "anfis_T0_predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21

    def test_missing_range_is_usage_error(self, capsys, config_path):
        code, _, err = run_cli(capsys, "--config", config_path, "anfis")
        assert code == 2 and "range" in err

    def test_zero_epochs_is_usage_error(self, capsys, config_path):
        code, _, err = run_cli(capsys, "--config", config_path, "anfis",
                               "--range", "0.2", "1.0", "--epochs", "0")
        assert code == 2 and "epoch" in err

    def test_fewer_points_than_linear_parameters_is_usage_error(
            self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "art"
        code, _, err = run_cli(capsys, "--config", config_path,
                               "--out", str(out_dir), "anfis",
                               "--range", "0.2", "1.0", "--points", "3")
        assert code == 2 and "3 admissible points" in err
        assert not out_dir.exists()


class TestSurface:
    def test_single_cell_matches_evaluate(self, capsys, config_path, tmp_path):
        code, out, _ = run_cli(capsys, "--config", config_path, "evaluate")
        phi = json.loads(out)["policy_result"]["value"]
        surf_config = json.loads(open(config_path).read())
        surf_config["surface"] = {
            "variables": ["T0", "xi1"],
            "range1": [DECISIONS["T0"], DECISIONS["T0"] + 1e-9],
            "range2": [DECISIONS["xi1"], DECISIONS["xi1"] + 1e-9],
            "n1": 1, "n2": 1,
        }
        path = tmp_path / "surf.json"
        path.write_text(json.dumps(surf_config))
        out_dir = tmp_path / "art"
        code, out, _ = run_cli(capsys, "--config", str(path),
                               "--out", str(out_dir), "surface")
        assert code == 0
        with open(out_dir / "surface_T0_xi1.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["phi_T"]) == pytest.approx(phi, rel=1e-12)

    def test_inadmissible_cells_left_empty(self, capsys, config_path,
                                           tmp_path):
        out_dir = tmp_path / "art"
        code, _, _ = run_cli(capsys, "--config", config_path,
                             "--out", str(out_dir), "surface",
                             "--vars", "T0", "W_r",
                             "--range1", "0.2", "0.8",
                             "--range2", "290", "310",
                             "--n1", "3", "--n2", "5")
        assert code == 0
        with open(out_dir / "surface_T0_W_r.csv") as fh:
            rows = list(csv.DictReader(fh))
        empties = [row for row in rows if row["phi_T"] == ""]
        filled = [row for row in rows if row["phi_T"] != ""]
        assert empties and filled
        assert all(float(r["W_r"]) >= 300 for r in empties)

    def test_empty_range_is_usage_error(self, capsys, config_path):
        code, _, err = run_cli(capsys, "--config", config_path, "surface",
                               "--vars", "T0", "xi1",
                               "--range1", "1.0", "1.0",
                               "--range2", "0", "10")
        assert code == 2 and "range" in err

    def test_zero_grid_points_is_usage_error(self, capsys, config_path,
                                             tmp_path):
        out_dir = tmp_path / "art"
        code, _, err = run_cli(capsys, "--config", config_path,
                               "--out", str(out_dir), "surface",
                               "--vars", "T0", "xi1",
                               "--range1", "0.2", "0.8",
                               "--range2", "0", "10", "--n1", "0")
        assert code == 2 and "grid point" in err
        assert not out_dir.exists()

    def test_interior_maximum_around_the_optimum(self, capsys, tmp_path,
                                                 calibration):
        doc = {
            "parameters": calibration.params.to_dict(),
            "policy": "tax",
            "decisions": DECISIONS,
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "art"
        code, _, _ = run_cli(capsys, "--config", str(path),
                             "--out", str(out_dir), "surface",
                             "--vars", "T0", "xi1",
                             "--range1", "0.45", "0.9",
                             "--range2", "120", "220",
                             "--n1", "7", "--n2", "7")
        assert code == 0
        with open(out_dir / "surface_T0_xi1.csv") as fh:
            rows = list(csv.DictReader(fh))
        grid = np.array([float(r["phi_T"]) for r in rows]).reshape(7, 7)
        i, j = np.unravel_index(np.argmax(grid), grid.shape)
        assert 0 < i < 6 and 0 < j < 6


class TestCalibrate:
    def test_reachable_target_exits_zero(self, capsys, tmp_path):
        from greenchain import DecisionVector, ModelParameters
        from greenchain.policy import evaluate_policy

        p = ModelParameters(**PARAMS)
        dec = DecisionVector.from_dict(DECISIONS)
        outcome = evaluate_policy(p, dec, "tax")
        doc = {
            "calibrate": {"target": {
                "decisions": DECISIONS,
                "Z_m": outcome.phi_m, "Z_r": outcome.phi_r,
                "phi_T": outcome.value,
            }},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "art"
        code, out, _ = run_cli(capsys, "--config", str(path),
                               "--out", str(out_dir), "calibrate")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert (out_dir / "reproduction_report.json").exists()

    def test_unreachable_target_exits_three(self, capsys, tmp_path):
        doc = {sec: val for sec, val in [("calibrate", {"target": {
            "decisions": DECISIONS, "Z_m": 9e5, "Z_r": 9e5, "phi_T": 1.8e6}})]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "--config", str(path), "calibrate")
        assert code == 3
        assert json.loads(out)["ok"] is False


class TestConfigValidation:
    def test_two_exclusive_sections_rejected(self, capsys, tmp_path):
        doc = {"parameters": PARAMS,
               "evaluate": {"decisions": DECISIONS},
               "surface": {"variables": ["T0", "xi1"]}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "--config", str(path), "evaluate")
        assert code == 2 and "at most one" in err

    def test_env_var_supplies_config(self, capsys, config_path, monkeypatch):
        monkeypatch.setenv("GREENCHAIN_CONFIG", config_path)
        code, out, _ = run_cli(capsys, "evaluate")
        assert code == 0
        assert json.loads(out)["policy"] == "tax"

    def test_missing_parameters_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"parameters_file": str(tmp_path / "none"),
                                    "decisions": DECISIONS}))
        code, _, err = run_cli(capsys, "--config", str(path), "evaluate")
        assert code == 2 and "parameters_file" in err

    def test_malformed_parameters_file_is_usage_error(self, capsys, tmp_path):
        params_path = tmp_path / "p.json"
        params_path.write_text("42")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"parameters_file": str(params_path),
                                    "decisions": DECISIONS}))
        code, _, err = run_cli(capsys, "--config", str(path), "evaluate")
        assert code == 2 and "parameters_file" in err

    @pytest.mark.parametrize("key, value, message", [
        ("C_Tax", "2", "not a real number: C_Tax"),
        ("P", [1], "not a real number: P"),
        ("f_d", True, "not a real number: f_d"),
        ("P", 10 ** 400, "too large for a float"),
        ("D_r", 0.0, "D_r must be strictly positive"),
    ], ids=["string", "list", "bool", "huge_int", "zero_D_r"])
    def test_unusable_parameter_value_is_invalid(self, capsys, tmp_path, key,
                                                 value, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"parameters": {**PARAMS, key: value},
                                    "decisions": DECISIONS}))
        code, _, err = run_cli(capsys, "--config", str(path), "evaluate")
        assert code == 2 and message in err

    def test_removed_inertia_option_rejected(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"parameters": PARAMS, "seed": 1,
                                    "optimizer": {"inertia_final": 0.4}}))
        code, _, err = run_cli(capsys, "--config", str(path), "optimize",
                               "--iters", "1")
        assert code == 2 and "inertia_final" in err

    def test_unknown_policy_rejected(self, capsys, config_path):
        code, _, err = run_cli(capsys, "--config", config_path,
                               "--policy", "tax", "evaluate", "--W_r", "500")
        assert code == 2


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    probe = ("import sys, greenchain.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
