import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from greenchain import (DecisionVector, ModelParameters, base_profits, cli,
                        compute_breakdown, compute_schedule, evaluate_policy)
from greenchain import kernels as K
from greenchain.cli import build_parser, main
from greenchain.model import DECISION_NAMES
from greenchain.policy import make_batch_objective

from conftest import sample_admissible
from oracles import surface_csv_reference

PARAMS = {"v1": 0.04, "v2": 0.06, "C_Tax": 2.1, "C_CT": 2.1}
DECISIONS = {"T0": 0.6626, "xi1": 167.8651, "xi2": 93.6741,
             "G": 7.7565, "W_r": 292.28}
OPTIMIZE = ["optimize", "--algo", "pso", "--iters", "1"]
SENSITIVITY = ["sensitivity", "--param", "v1", "--iters", "1"]
SURFACE = {"variables": ["T0", "xi1"], "range1": [0.2, 0.8],
           "range2": [0.0, 10.0], "n1": 2, "n2": 2}
ANFIS = {"range": [0.2, 1.0], "n_points": 12, "epochs": 1}
CALIBRATION_TARGET = {"decisions": DECISIONS, "Z_m": 6493.11, "Z_r": 60302.21,
                      "phi_T": 66795.32}


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

    def test_infeasible_limited_point_reports_json_bool(self, capsys, config_path):
        # The reference point breaks the cap; its violation is a NumPy float.
        code, out, _ = run_cli(capsys, "--config", config_path,
                               "--policy", "limited", "evaluate")
        assert code == 0
        result = json.loads(out)["policy_result"]
        assert result["feasible"] is False and result["constraint_violation"] > 0

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

    @pytest.mark.parametrize("policy", ["tax", "cap_trade", "limited"])
    def test_one_twin_call_gives_the_public_views(self, capsys, tmp_path,
                                                  monkeypatch, policy):
        """Each section is the matching public view, bit for bit, at the
        reference point and at drawn admissible points, from one twin call."""
        twin, calls = K.evaluate_terms, []
        monkeypatch.setattr(K, "evaluate_terms",
                            lambda *a, **kw: calls.append(a) or twin(*a, **kw))
        pairs = [(ModelParameters.from_dict(PARAMS), DecisionVector(**DECISIONS)),
                 *sample_admissible(np.random.default_rng(25), 4)]
        path = tmp_path / "c.json"
        for params, decisions in pairs:
            path.write_text(json.dumps({"parameters": params.to_dict(),
                                        "decisions": decisions.to_dict()}))
            calls.clear()
            code, out, _ = run_cli(capsys, "--config", str(path),
                                   "--policy", policy, "evaluate")
            assert code == 0 and len(calls) == 1
            outcome = evaluate_policy(params, decisions, policy)
            views = {
                "schedule": compute_schedule(params, decisions).to_dict(),
                "costs_and_emissions": compute_breakdown(params, decisions).to_dict(),
                "base_profits": base_profits(params, decisions).to_dict(),
                "policy_result": {
                    "value": outcome.value, "phi_m": outcome.phi_m,
                    "phi_r": outcome.phi_r, "feasible": outcome.feasible,
                    "constraint_violation": outcome.constraint_violation},
            }
            doc = json.loads(out)
            for section, view in views.items():
                assert (json.dumps(doc[section], sort_keys=True)
                        == json.dumps(view, sort_keys=True)), section


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

    @pytest.mark.parametrize("flag", ["--pop", "--iters", "--seeds"])
    def test_count_too_large_to_allocate_is_usage_error(self, capsys, config_path,
                                                        flag):
        # Refused before the runs allocate: --pop and --iters by
        # OptimizerConfig.validate, --seeds by multi_seed_run.
        count = str(10 ** 15)
        code, out, err = run_cli(capsys, "--config", config_path, "optimize",
                                 "--algo", "pso", flag, count)
        assert code == 2 and count in err and "too large" in err
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

    @pytest.mark.parametrize("command", [OPTIMIZE, SENSITIVITY])
    def test_seed_in_optimizer_section_is_usage_error(self, capsys, tmp_path,
                                                      command):
        # The seed is top-level only; the run would otherwise ignore it.
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"parameters": PARAMS, "seed": 1,
                                    "optimizer": {"seed": 99}}))
        code, out, err = run_cli(capsys, "--config", str(path), *command)
        assert code == 2 and "unknown optimizer options: seed" in err
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


@pytest.mark.parametrize("argv", [
    ["anfis", "--range", "0.2", "1.0", "--points"],
    ["surface", "--vars", "T0", "W_r", "--range1", "0.05", "12", "--range2",
     "80", "320", "--n1", "2", "--n2"],
    ["surface", "--vars", "T0", "W_r", "--range1", "0.05", "12", "--range2",
     "80", "320", "--n2", "2", "--n1"]], ids=["anfis_points", "surface_n2",
                                              "surface_n1"])
def test_grid_count_too_large_to_allocate_is_usage_error(capsys, config_path, argv):
    # Refused by the optimizers' memory check, before the grid allocates.
    count = str(10 ** 15)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "--config", config_path, *argv, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and count in err and "too large" in err
    assert out == "" and peak < 1e6


def expected_surface(v1, v2, range1, range2, n1, n2):
    """The reference CSV text for a `surface` run on the fixture config."""
    xs = np.linspace(*range1, n1)
    ys = np.linspace(*range2, n2)
    grid = np.tile(DecisionVector.from_dict(DECISIONS).as_array(), (n1 * n2, 1))
    XX, YY = np.meshgrid(xs, ys, indexing="ij")
    grid[:, DECISION_NAMES.index(v1)] = XX.ravel()
    grid[:, DECISION_NAMES.index(v2)] = YY.ravel()
    values, _, valid = make_batch_objective(ModelParameters(**PARAMS), "tax")(grid)
    return surface_csv_reference(v1, v2, xs, ys, values, valid)


class TestSurface:
    @pytest.mark.parametrize("v1, v2, range1, range2, n1, n2", [
        ("T0", "W_r", (0.2, 0.8), (290.0, 310.0), 3, 5),
        ("T0", "xi1", (0.45, 0.9), (120.0, 220.0), 1, 4),
        ("xi2", "T0", (80.0, 100.0), (0.3, 0.9), 5, 1),
        ("G", "T0", (1e-05, 3e-05), (0.1, 2.0), 4, 3),
        # 25 grid rows per block: two blocks, the last one short.
        ("T0", "W_r", (0.05, 12.0), (80.0, 320.0), 27, 320),
        # A grid row wider than a block: one row per block.
        ("W_r", "T0", (250.0, 305.0), (0.05, 12.0), 3, 8200),
    ], ids=["mixed_admissible", "n1_one", "n2_one", "exponent_axis",
            "short_last_block", "row_wider_than_block"])
    def test_csv_bytes_match_reference(self, capsys, config_path, tmp_path,
                                       v1, v2, range1, range2, n1, n2):
        expected = expected_surface(v1, v2, range1, range2, n1, n2)
        argv = ["--config", config_path]
        tail = ["surface", "--vars", v1, v2,
                "--range1", *map(repr, range1), "--range2", *map(repr, range2),
                "--n1", str(n1), "--n2", str(n2)]
        out_dir = tmp_path / "art"
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_dir), *tail)
        assert code == 0
        written = (out_dir / f"surface_{v1}_{v2}.csv").read_bytes()
        assert written == expected.encode()
        code, out, _ = run_cli(capsys, *argv, *tail)
        assert code == 0 and out == expected
        lines = expected.split("\r\n")
        assert lines[-1] == "" and len(lines) == n1 * n2 + 2
        assert not any("\r" in line or "\n" in line for line in lines)

    def test_memory_does_not_grow_with_the_grid(self, capsys, config_path,
                                                tmp_path):
        # Evaluating the whole 320 x 320 grid in one call peaks at about
        # 62 MB; a block of grid rows at a time, at about 5 MB.
        out_dir = tmp_path / "art"
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "--config", config_path, "--out",
                                 str(out_dir), "surface", "--vars", "T0", "W_r",
                                 "--range1", "0.05", "12", "--range2", "80", "320",
                                 "--n1", "320", "--n2", "320")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak <= 16e6
        with open(out_dir / "surface_T0_W_r.csv", newline="") as fh:
            assert sum(1 for _ in fh) == 320 * 320 + 1

    def test_failed_write_leaves_no_file(self, capsys, config_path, tmp_path,
                                         monkeypatch):
        def failing_on_second_call(params, policy):
            objective, calls = make_batch_objective(params, policy), []

            def call(X):
                calls.append(len(X))
                if len(calls) == 2:
                    raise RuntimeError("objective failed")
                return objective(X)
            return call

        monkeypatch.setattr(cli, "make_batch_objective", failing_on_second_call)
        out_dir = tmp_path / "art"
        # 81 grid rows per block: five blocks, the second one raises.
        code, _, err = run_cli(capsys, "--config", config_path, "--out",
                               str(out_dir), "surface", "--vars", "T0", "W_r",
                               "--range1", "0.05", "12", "--range2", "80", "320",
                               "--n2", "100", "--n1", "400")
        assert code == 1 and "objective failed" in err
        assert not (out_dir / "surface_T0_W_r.csv").exists()
        assert list(out_dir.glob("*.tmp")) == []

    def test_reference_covers_empty_cells_and_exponents(self):
        mixed = expected_surface("T0", "W_r", (0.2, 0.8), (290.0, 310.0), 3, 5)
        cells = [line.split(",")[2] for line in mixed.splitlines()[1:]]
        assert "" in cells and any(cells)
        tiny = expected_surface("G", "T0", (1e-05, 3e-05), (0.1, 2.0), 4, 3)
        assert tiny.splitlines()[1].startswith("1e-05,")

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_repeated_variable_is_usage_error(self, capsys, tmp_path, source):
        surface = {**SURFACE, "variables": ["T0", "T0"]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"parameters": PARAMS, "decisions": DECISIONS,
                                    "surface": surface}))
        flags = ["--vars", "T0", "T0"] if source == "flags" else []
        out_dir = tmp_path / "art"
        code, out, err = run_cli(capsys, "--config", str(path),
                                 "--out", str(out_dir), "surface", *flags)
        assert code == 2 and "different variables" in err
        assert out == "" and not out_dir.exists()

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

    def test_null_parameter_counts_as_absent(self, capsys, tmp_path):
        reports = []
        for parameters in ({"P": None}, {}):
            path = tmp_path / "c.json"
            path.write_text(json.dumps({"parameters": parameters}))
            code, out, _ = run_cli(capsys, "--config", str(path), "calibrate")
            assert code == 0
            reports.append(json.loads(out))
        assert reports[0] == reports[1]

    def test_parameters_file_fits_like_inline(self, capsys, tmp_path):
        params_path = tmp_path / "p.json"
        params_path.write_text(json.dumps({"P": 9000}))
        fits = []
        for doc in ({"parameters_file": str(params_path)},
                    {"parameters": {"P": 9000}}):
            path = tmp_path / "c.json"
            path.write_text(json.dumps(doc))
            code, out, _ = run_cli(capsys, "--config", str(path), "calibrate")
            assert code == 0
            fits.append(json.loads(out)["fitted"])
        assert fits[0] == fits[1]
        assert fits[0]["v1"] == pytest.approx(0.140019, rel=1e-5)


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

    @pytest.mark.parametrize("command, change", [
        (OPTIMIZE, {"seed": 2.5}),
        (OPTIMIZE, {"seed": True}),
        (["surface"], {"surface": {**SURFACE, "n1": 2.5}}),
        (["surface"], {"surface": {**SURFACE, "n1": True}}),
        (["anfis"], {"anfis": {**ANFIS, "epochs": 2.5}}),
        (["anfis"], {"anfis": {**ANFIS, "n_points": None}}),
        (["evaluate"], {"decisions": [1, 2]}),
        (OPTIMIZE, {"optimizer": [1]}),
        (["sensitivity", "--param", "v1"], {"sensitivity": [1]}),
        (["evaluate"], {"policy": ["tax"]}),
        (["evaluate"], {"parameters": [1]}),
        (["evaluate"], {"out_dir": 5}),
        (["surface"], {"surface": {**SURFACE, "range1": ["a", "b"]}}),
        (["surface"], {"surface": {**SURFACE, "range1": [1]}}),
        (["calibrate"], {"calibrate": {"target": "x"}}),
        (["calibrate"], {"calibrate": {"target": {
            "decisions": {}, "Z_m": 1.0, "Z_r": 1.0, "phi_T": 2.0}}}),
        (["evaluate"], {"decisions": {**DECISIONS, "T0": True}}),
        (["evaluate"], {"decisions": {**DECISIONS, "T0": "0.6626"}}),
        (SENSITIVITY, {"sensitivity": {"levels": 5}}),
        (SENSITIVITY, {"sensitivity": {"levels": [-20, "0", 20]}}),
        (SENSITIVITY, {"sensitivity": {"reoptimize": "no"}}),
        (SENSITIVITY, {"sensitivity": {"reoptimize": 0}}),
        (["anfis"], {"anfis": {**ANFIS, "learning_rate": [1]}}),
        (["anfis"], {"anfis": {**ANFIS, "learning_rate": True}}),
        (["surface"], {"surface": {**SURFACE, "range1": [0.2, math.inf]}}),
        (["surface"], {"surface": {**SURFACE, "range1": [-math.inf, math.inf]}}),
        (SENSITIVITY + ["--no-reoptimize", "--levels=nan,0"], {}),
        (["anfis"], {"anfis": {**ANFIS, "learning_rate": -5}}),
        (["anfis"], {"anfis": {**ANFIS, "learning_rate": 0}}),
        (["evaluate", "--G", "inf"], {}),
        (["evaluate", "--xi1", "inf"], {}),
        (["calibrate"], {"calibrate": {"target": {**CALIBRATION_TARGET, "Z_m": 0}}}),
        (["calibrate"], {"calibrate": {"target": {**CALIBRATION_TARGET,
                                                  "Z_m": math.nan}}}),
        (["calibrate"], {"calibrate": {"target": {**CALIBRATION_TARGET,
                                                  "Z_m": math.inf}}}),
        (["calibrate"], {"calibrate": {"target": {
            **CALIBRATION_TARGET, "decisions": {**DECISIONS, "G": 1e300}}}}),
        (["calibrate"], {"calibrate": {"target": {
            **CALIBRATION_TARGET, "decisions": {**DECISIONS, "T0": -1.0}}}}),
        (["calibrate"], {"parameters": {**PARAMS, "bogus": 1.0}}),
        (["evaluate"], {"parameters": None, "parameters_file": None}),
        (["evaluate"], {"policy": ""}),
        (["evaluate"], {"polcy": "limited"}),
        (["anfis"], {"anfis": {**ANFIS, "epoch": 3}}),
        (["surface"], {"surface": {**SURFACE, "n_1": 3}}),
        (["calibrate"], {"calibrate": {"target": {
            **CALIBRATION_TARGET, "decisions": {**DECISIONS, "G": 1e200}}}}),
    ], ids=["seed_float", "seed_bool", "n1_float", "n1_bool", "epochs_float",
            "n_points_null", "decisions_list", "optimizer_list",
            "sensitivity_list", "policy_list", "parameters_list",
            "out_dir_number", "range1_strings", "range1_short",
            "target_string", "target_empty_decisions", "decision_bool",
            "decision_string", "levels_number", "levels_string",
            "reoptimize_string", "reoptimize_number", "learning_rate_list",
            "learning_rate_bool", "range1_infinite", "range1_both_infinite",
            "levels_flag_nan", "learning_rate_negative", "learning_rate_zero",
            "G_flag_inf", "xi1_flag_inf", "target_zero",
            "target_nan", "target_inf", "target_overflow",
            "target_inadmissible", "calibrate_unknown_key", "parameters_null",
            "policy_empty",
            "unknown_top_level_key", "unknown_anfis_key", "unknown_surface_key",
            "target_overflow_warning"])
    def test_malformed_config_value_is_usage_error(self, capsys, tmp_path,
                                                   command, change):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"parameters": PARAMS, "seed": 7,
                                    "decisions": DECISIONS, **change}))
        code, out, err = run_cli(capsys, "--config", str(path), *command)
        assert code == 2 and "error:" in err
        assert out == ""

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


def _env_with_src(**changes) -> dict:
    """os.environ with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **changes}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def test_cli_import_leaves_scipy_unloaded():
    env = _env_with_src()
    probe = ("import sys, greenchain.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """`evaluate` and a two-seed `optimize`, each run in fresh interpreters
    under two PYTHONHASHSEED values: the same stdout, and the same files
    once `meta` is dropped from every JSON document."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"parameters": PARAMS, "policy": "tax",
                                  "seed": 7, "decisions": DECISIONS}))
    commands = (["evaluate"], ["optimize", "--algo", "de1", "--pop", "5",
                               "--iters", "2", "--seeds", "2"])
    runs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        stdout = [subprocess.run(
            [sys.executable, "-m", "greenchain.cli", "--config", str(config),
             "--out", str(out), *argv], env=_env_with_src(PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, check=True).stdout for argv in commands]
        files = {}
        for path in sorted(out.iterdir()):
            text = path.read_bytes().decode()
            if path.suffix == ".json":
                doc = json.loads(text)
                doc.pop("meta")
                text = json.dumps(doc, indent=2, sort_keys=True)
            files[path.name] = text
        runs.append((stdout, files))
    assert len(runs[0][1]) == 6
    assert runs[0] == runs[1]
