import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greenchain import DecisionVector, DomainError, ModelParameters, kernels
from greenchain.optimize import (OptimizerConfig, default_search_space, run,
                                 run_many)
from greenchain.params import ParameterError
from greenchain.policy import evaluate_policy, make_batch_objective
from greenchain.sensitivity import (DEFAULT_CALIBRATION_TARGET,
                                    STATIONARITY_WEIGHT, CalibrationTarget,
                                    SweepSpec, calibrate_missing_defaults,
                                    _run_sweeps, calibration_residuals, run_sweep,
                                    sweep_slope)

QUICK_PSO = OptimizerConfig(algorithm="pso", seed=17, pop_size=30, max_iter=120)


class TestSweep:
    def test_baseline_row_has_zero_change(self, params):
        spec = SweepSpec(parameter="C_r", optimizer=QUICK_PSO)
        rows = run_sweep(spec, params)
        zero = next(r for r in rows if r.level == 0.0)
        assert zero.pct_change == 0.0
        assert all(r.feasible for r in rows)

    def test_unread_parameter_leaves_rows_identical(self, params):
        # U1 never enters the tax objective: every row repeats the baseline
        spec = SweepSpec(parameter="U1", optimizer=QUICK_PSO)
        rows = run_sweep(spec, params)
        base = rows[2]
        for row in rows:
            assert row.phi_T == base.phi_T
            assert row.pct_change == 0.0
            assert row.decisions == base.decisions

    def test_fixed_decision_sweep(self, params):
        dec = DecisionVector(T0=0.6, xi1=50.0, xi2=50.0, G=2.0, W_r=280.0)
        spec = SweepSpec(parameter="C_p", optimizer=QUICK_PSO,
                         decisions=dec)
        rows = run_sweep(spec, params)
        # fixed decisions: production cost hits profit exactly linearly
        deltas = np.diff([r.phi_T for r in rows])
        assert np.allclose(deltas, deltas[0], rtol=1e-9)
        assert sweep_slope(rows) < 0

    def test_fixed_decision_sweeps_run_together_as_alone(self, params):
        dec = DecisionVector(T0=0.6, xi1=50.0, xi2=50.0, G=2.0, W_r=280.0)
        spec = SweepSpec(parameter="C_p", optimizer=QUICK_PSO,
                         decisions=dec)
        together = _run_sweeps(spec, ["C_p", "f_d"], params)
        alone = [run_sweep(dataclasses.replace(spec, parameter=name), params)
                 for name in ("C_p", "f_d")]
        assert together == alone
        assert all(r.feasible and r.decisions == dec for rows in together for r in rows)

    def test_levels_must_include_baseline(self, params):
        with pytest.raises(ValueError, match="include 0"):
            run_sweep(SweepSpec(parameter="C_p", levels=(10.0, 20.0),
                                optimizer=QUICK_PSO), params)

    def test_unknown_parameter_rejected(self, params):
        with pytest.raises(ValueError, match="unknown parameter"):
            SweepSpec(parameter="nope", optimizer=QUICK_PSO).validate()

    def test_inadmissible_level_flagged_not_fatal(self, params):
        p = params.replace(f_d=0.8)
        spec = SweepSpec(parameter="f_d", optimizer=QUICK_PSO,
                         levels=(-40.0, 0.0, 40.0))
        rows = run_sweep(spec, p)
        assert rows[0].feasible and rows[1].feasible
        assert not rows[2].feasible          # f_d = 1.12 breaks the invariant
        assert math.isnan(rows[2].phi_T)

    def test_antisymmetric_response_for_affine_parameter(self, params):
        dec = DecisionVector(T0=0.6, xi1=50.0, xi2=50.0, G=2.0, W_r=280.0)
        spec = SweepSpec(parameter="i_c", optimizer=QUICK_PSO,
                         decisions=dec)
        rows = run_sweep(spec, params)
        by_level = {r.level: r.pct_change for r in rows}
        assert by_level[40.0] == pytest.approx(2 * by_level[20.0], rel=1e-2)
        assert by_level[-40.0] == pytest.approx(-by_level[40.0], rel=1e-2)


@pytest.mark.parametrize("policy", ["tax", "cap_trade", "limited"])
def test_sweep_rows_are_evaluate_policy_rows(params, policy):
    """Every row of a batch of sweeps is evaluate_policy's at its level,
    bit for bit.  At W_r = 280 the model refuses `a` below its base
    (demand a - b W_r < 0), and f_d = 0.8 * 1.4 does not build."""
    p = params.replace(f_d=0.8)
    dec = DecisionVector(T0=0.6, xi1=50.0, xi2=50.0, G=2.0, W_r=280.0)
    names = ["a", "f_d", "C_p", "kappa1", "omega"]
    fixed = SweepSpec(parameter="a", policy=policy, decisions=dec)
    reoptimized = SweepSpec(parameter="a", policy=policy,
                            optimizer=dataclasses.replace(QUICK_PSO, max_iter=10))
    for spec in (fixed, reoptimized):
        for name, rows in zip(names, _run_sweeps(spec, names, p)):
            for row in rows:
                try:
                    level = p.replace(**{name: getattr(p, name) * (1.0 + row.level / 100.0)})
                    outcome = evaluate_policy(level, row.decisions or dec, policy)
                except (DomainError, ParameterError):
                    assert not row.feasible and row.decisions is None
                    assert math.isnan(row.phi_T)
                    continue
                assert row.feasible, (name, row.level)
                assert [row.Z_m.hex(), row.Z_r.hex(), row.phi_T.hex()] == [
                    outcome.phi_m.hex(), outcome.phi_r.hex(), outcome.value.hex()]
    rows = dict(zip(names, _run_sweeps(fixed, names, p)))
    assert [r.feasible for r in rows["a"]] == [False, False, True, True, True]
    assert [r.feasible for r in rows["f_d"]] == [True, True, True, True, False]


class TestCalibration:
    def test_round_trip_recovers_known_constants(self):
        truth = {"v1": 0.012, "v2": 0.02, "C_Tax": 1.7}
        p = ModelParameters(**truth)
        result = run(default_search_space(p),
                     OptimizerConfig(algorithm="pso", seed=3),
                     make_batch_objective(p, "tax"))
        outcome = evaluate_policy(p, result.decisions, "tax")
        target = CalibrationTarget(decisions=result.decisions,
                                   Z_m=outcome.phi_m, Z_r=outcome.phi_r,
                                   phi_T=outcome.value)
        fit = calibrate_missing_defaults(target)
        assert fit.ok
        for name, true in truth.items():
            assert getattr(fit, name) == pytest.approx(true, rel=1e-3)
        assert all(fit.identifiable.values())

    def test_flat_tax_direction_flagged_unidentifiable(self):
        # no emissions and no green investment: the tax price cannot matter
        zeros = dict(E_p=0.0, E_t=0.0, E_h1=0.0, E_h2=0.0, E_hr=0.0,
                     E_d1=0.0, E_d2=0.0, E_dr=0.0)
        p = ModelParameters(v1=0.02, v2=0.03, C_Tax=1.0, **zeros)
        dec = DecisionVector(T0=0.6, xi1=80.0, xi2=60.0, G=0.0, W_r=280.0)
        outcome = evaluate_policy(p, dec, "tax")
        target = CalibrationTarget(decisions=dec, Z_m=outcome.phi_m,
                                   Z_r=outcome.phi_r, phi_T=outcome.value)
        fit = calibrate_missing_defaults(target, base_values=zeros)
        assert fit.identifiable["C_Tax"] is False

    @pytest.mark.parametrize("idle", ["xi1", "xi2"])
    def test_one_idle_investment_flags_only_its_efficiency(self, idle):
        # With xi1 = 0 no value of v1 moves a profit, and likewise xi2, v2.
        p = ModelParameters(v1=0.03, v2=0.05, C_Tax=2.0)
        dec = DecisionVector(**{**DEFAULT_CALIBRATION_TARGET.decisions.to_dict(),
                                idle: 0.0})
        outcome = evaluate_policy(p, dec, "tax")
        fit = calibrate_missing_defaults(CalibrationTarget(
            decisions=dec, Z_m=outcome.phi_m, Z_r=outcome.phi_r,
            phi_T=outcome.value))
        assert fit.ok
        assert fit.identifiable == {"v1": idle != "xi1", "v2": idle != "xi2",
                                    "C_Tax": True}

    def test_unreachable_target_reported_not_silenced(self):
        target = CalibrationTarget(
            decisions=DecisionVector(T0=0.6626, xi1=167.8651, xi2=93.6741,
                                     G=7.7565, W_r=292.28),
            Z_m=500000.0, Z_r=60302.21, phi_T=560302.0)
        fit = calibrate_missing_defaults(target)
        assert not fit.ok
        assert fit.residual > 0.01
        report = fit.report()
        assert report["ok"] is False and "relative_errors" in report

    def test_fit_makes_few_twin_calls(self, monkeypatch):
        # The grid, each pattern-search step and the fit with its probes
        # are one twin call apiece.
        calls = 0
        evaluate_terms = kernels.evaluate_terms

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return evaluate_terms(*args, **kwargs)

        monkeypatch.setattr(kernels, "evaluate_terms", counted)
        calibrate_missing_defaults()
        assert calls <= 35

    def test_report_is_json_serialisable(self, calibration):
        doc = json.loads(json.dumps(calibration.report()))
        assert set(doc) >= {"fitted", "residual", "ok", "relative_errors",
                            "identifiable"}
        assert doc["ok"] is True

    def test_drawn_targets_recovered(self):
        # Triples drawn around the reference constants; each target is the
        # best of four PSO seeds under its triple, so its decisions are
        # re-optimized like a published row.
        reference = np.array([0.0386, 0.0549, 2.108])
        triples = np.concatenate([
            reference * np.random.default_rng(seed).uniform(0.8, 1.25, (3, 3))
            for seed in (1, 2)])
        sets = [ModelParameters(v1=v1, v2=v2, C_Tax=c_tax)
                for v1, v2, c_tax in triples]
        runs = [p for p in sets for _ in range(4)]
        results = run_many(
            [default_search_space(p) for p in runs],
            OptimizerConfig(algorithm="pso", seed=0),
            [seed for _ in sets for seed in range(4)], make_batch_objective(runs, "tax"))
        for k, (p, truth) in enumerate(zip(sets, triples)):
            best = max(results[4 * k:4 * k + 4], key=lambda r: r.best_fitness)
            outcome = evaluate_policy(p, best.decisions, "tax")
            fit = calibrate_missing_defaults(CalibrationTarget(
                decisions=best.decisions, Z_m=outcome.phi_m,
                Z_r=outcome.phi_r, phi_T=outcome.value))
            assert fit.ok and all(fit.identifiable.values())
            np.testing.assert_allclose([fit.v1, fit.v2, fit.C_Tax], truth,
                                       rtol=1e-5)


def direct_residuals(target: CalibrationTarget, params: ModelParameters):
    """The calibration residuals from evaluate_policy, one decision at a time."""
    d = target.decisions
    outcome = evaluate_policy(params, d, "tax")
    r = [(outcome.phi_m - target.Z_m) / abs(target.Z_m),
         (outcome.phi_r - target.Z_r) / abs(target.Z_r),
         (outcome.value - target.phi_T) / abs(target.phi_T)]
    for name in ("xi1", "xi2", "G"):
        value = getattr(d, name)
        if value <= 1e-3:
            continue
        h = max(1e-4 * value, 1e-5)
        lo, hi = (evaluate_policy(params, dataclasses.replace(d, **{name: x}),
                                  "tax").value for x in (value - h, value + h))
        r.append(math.sqrt(STATIONARITY_WEIGHT) * (hi - lo) / (2.0 * h)
                 * value / abs(target.phi_T))
    return np.array(r)


LOG_V = st.floats(math.log(2e-3), math.log(0.5))


@settings(max_examples=60, deadline=None)
@given(lv1=LOG_V, lv2=LOG_V, c_tax=st.floats(0.0, 1e3))
def test_residuals_are_affine_in_the_tax_price(lv1, lv2, c_tax):
    # The premise of projecting C_Tax out of the calibration loss.
    target = DEFAULT_CALIBRATION_TARGET
    v1, v2 = math.exp(lv1), math.exp(lv2)
    r0, s, ok = calibration_residuals(target)(
        ModelParameters(v1=v1, v2=v2, C_Tax=0.0).as_array()[None, :])
    assert ok[0]
    r0, s = r0[0], s[0]
    r = direct_residuals(target, ModelParameters(v1=v1, v2=v2, C_Tax=c_tax))
    assert np.abs(r0 + c_tax * s - r).max() <= 1e-9 * np.linalg.norm(r)
