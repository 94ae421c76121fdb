"""One-at-a-time parameter sweeps and calibration of the missing constants.

A sweep perturbs one exogenous parameter over relative levels (default
-40..+40 %), re-optimizes the five decision variables at every level from
the same seed, and reports the re-optimized decisions, per-player profits
and the joint-profit percent change against the 0 % row.

``calibrate_missing_defaults`` fits the constants that the published
default table omits (v1, v2 and the carbon tax price) so that the model
reproduces a reference operating point: a known decision vector together
with its per-player and joint profits under the tax policy.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import PARAM_ORDER
from .model import DecisionVector, DomainError
# `run` is not called here; it stays importable from this module for
# callers that wrap it by attribute.
from .optimize import (OptimizerConfig, default_search_space, run,  # noqa: F401
                       run_many)
from .params import ModelParameters, ParameterError, TABLE_DEFAULTS
from .policy import evaluate_policy, make_batch_objective

#: Slope directions the sweeps are expected to exhibit (joint profit).
EXPECTED_DECREASING = ("C_p", "C_r", "E_p", "E_t", "h_p", "C_Tax", "d1",
                       "f_r", "beta1")
EXPECTED_INCREASING = ("P", "P_r", "eta", "v1", "v2")

DEFAULT_LEVELS = (-40.0, -20.0, 0.0, 20.0, 40.0)

SWEEP_CSV_COLUMNS = ("parameter", "pct_change", "T0", "xi1", "xi2", "W_r",
                     "G", "Z_m", "Z_r", "phi_T", "phi_T_pct_change")


@dataclass
class SweepSpec:
    """One-at-a-time sweep description."""

    parameter: str
    levels: tuple = DEFAULT_LEVELS
    policy: str = "tax"
    optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(algorithm="pso", seed=0))
    reoptimize: bool = True
    decisions: DecisionVector | None = None   # required when reoptimize=False

    def validate(self) -> None:
        if self.parameter not in PARAM_ORDER:
            raise ValueError(f"unknown parameter {self.parameter!r}")
        if 0.0 not in self.levels:
            raise ValueError("sweep levels must include 0")
        if not self.reoptimize and self.decisions is None:
            raise ValueError("fixed-decision sweeps need a decision vector")


@dataclass
class SweepRow:
    """Result at one sweep level; profits are NaN when infeasible."""

    level: float
    feasible: bool
    decisions: DecisionVector | None
    Z_m: float
    Z_r: float
    phi_T: float
    pct_change: float = math.nan


def run_sweep(spec: SweepSpec, params: ModelParameters) -> list[SweepRow]:
    """One row per level, each re-optimized from the same seed.

    The re-optimized levels run in lockstep (``optimize.run_many``).
    """
    return _run_sweeps([spec], params)[0]


def _sweep_levels(spec: SweepSpec, params: ModelParameters) -> list:
    """(level, parameters) pairs; parameters are None where they do not build."""
    spec.validate()
    base_value = getattr(params, spec.parameter)
    if base_value is None:
        raise ParameterError(
            f"cannot sweep {spec.parameter}: no value supplied")
    levels = []
    for level in spec.levels:
        try:
            level_params = params.replace(
                **{spec.parameter: base_value * (1.0 + level / 100.0)})
            level_params.require_policy_price(spec.policy)
        except ParameterError:
            level_params = None
        levels.append((level, level_params))
    return levels


def _sweep_row(spec: SweepSpec, level: float, level_params, result) -> SweepRow:
    infeasible = SweepRow(level, False, None, math.nan, math.nan, math.nan)
    if level_params is None:
        return infeasible
    if spec.reoptimize:
        if not np.isfinite(result.best_value):
            return infeasible
        decisions = result.decisions
    else:
        decisions = spec.decisions
    try:
        outcome = evaluate_policy(level_params, decisions, spec.policy)
    except (DomainError, ParameterError):
        return infeasible
    return SweepRow(level, True, decisions, outcome.phi_m, outcome.phi_r,
                    outcome.value)


def _run_sweeps(specs: list[SweepSpec], params: ModelParameters) -> list[list[SweepRow]]:
    """Rows of each sweep; every re-optimized level of every sweep shares
    one ``run_many`` call, so the specs must share the policy and the
    optimizer's algorithm, population and iterations."""
    if len({spec.policy for spec in specs}) > 1:
        raise ValueError("sweeps run together must share the policy")
    plans = [_sweep_levels(spec, params) for spec in specs]
    pending = [(i, j, level_params)
               for i, (spec, plan) in enumerate(zip(specs, plans)) if spec.reoptimize
               for j, (_, level_params) in enumerate(plan) if level_params is not None]
    results = {}
    if pending:
        found = run_many(
            [default_search_space(lp) for _, _, lp in pending],
            [specs[i].optimizer for i, _, _ in pending],
            make_batch_objective([lp for _, _, lp in pending], specs[0].policy))
        results = {(i, j): result for (i, j, _), result in zip(pending, found)}

    sweeps = []
    for i, (spec, plan) in enumerate(zip(specs, plans)):
        rows = [_sweep_row(spec, level, level_params, results.get((i, j)))
                for j, (level, level_params) in enumerate(plan)]
        baseline = next(r for r in rows if r.level == 0.0)
        for row in rows:
            if row.feasible and baseline.feasible and baseline.phi_T != 0.0:
                row.pct_change = 100.0 * (row.phi_T - baseline.phi_T) / abs(baseline.phi_T)
        sweeps.append(rows)
    return sweeps


def sweep_slope(rows: list[SweepRow]) -> float:
    """Least-squares slope of joint profit against the level, NaN-safe."""
    pts = [(r.level, r.phi_T) for r in rows if r.feasible]
    if len(pts) < 2:
        return math.nan
    x, y = np.array(pts).T
    return float(np.polyfit(x, y, 1)[0])


def direction_report(params: ModelParameters,
                     optimizer: OptimizerConfig,
                     policy: str = "tax",
                     parameters: tuple | None = None) -> dict:
    """Sweep every listed parameter and verify the profit slope sign.

    All levels of all sweeps run in one lockstep call.
    """
    names = parameters if parameters is not None else \
        EXPECTED_DECREASING + EXPECTED_INCREASING
    specs = [SweepSpec(parameter=name, policy=policy, optimizer=optimizer)
             for name in names]
    checks = {}
    for name, rows in zip(names, _run_sweeps(specs, params)):
        expected = "-" if name in EXPECTED_DECREASING else "+"
        slope = sweep_slope(rows)
        ok = math.isfinite(slope) and (slope < 0 if expected == "-" else slope > 0)
        checks[name] = {"expected": expected, "slope": slope, "ok": bool(ok)}
    return checks


def sweep_table(parameter: str, rows: list[SweepRow]):
    """Cells of the sweep table in SWEEP_CSV_COLUMNS order.

    Infeasible rows leave the numeric cells empty.
    """
    for row in rows:
        if row.feasible:
            d = row.decisions
            yield [parameter, row.level, d.T0, d.xi1, d.xi2, d.W_r, d.G,
                   row.Z_m, row.Z_r, row.phi_T, row.pct_change]
        else:
            yield [parameter, row.level] + [""] * 9


@dataclass(frozen=True)
class CalibrationTarget:
    """A reference operating point under the carbon-tax policy."""

    decisions: DecisionVector
    Z_m: float
    Z_r: float
    phi_T: float


#: Built-in benchmark row used by the `calibrate` CLI command by default.
DEFAULT_CALIBRATION_TARGET = CalibrationTarget(
    decisions=DecisionVector(T0=0.6626, xi1=167.8651, xi2=93.6741,
                             G=7.7565, W_r=292.28),
    Z_m=6493.11, Z_r=60302.21, phi_T=66795.32)


@dataclass
class CalibrationResult:
    """Fitted triple plus the achieved reproduction quality."""

    v1: float
    v2: float
    C_Tax: float
    residual: float               # max |relative error| over the 3 targets
    ok: bool                      # residual <= tolerance
    tolerance: float
    errors: dict                  # per-target relative errors
    identifiable: dict            # per-coordinate sensitivity flags
    params: ModelParameters       # base parameters with the fit applied

    def report(self) -> dict:
        return {
            "fitted": {"v1": self.v1, "v2": self.v2, "C_Tax": self.C_Tax},
            "residual": self.residual,
            "ok": self.ok,
            "tolerance": self.tolerance,
            "relative_errors": self.errors,
            "identifiable": self.identifiable,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.report(), indent=indent, sort_keys=True)


def _target_errors(params: ModelParameters, target: CalibrationTarget) -> dict:
    outcome = evaluate_policy(params, target.decisions, "tax")
    return {
        "Z_m": (outcome.phi_m - target.Z_m) / abs(target.Z_m),
        "Z_r": (outcome.phi_r - target.Z_r) / abs(target.Z_r),
        "phi_T": (outcome.value - target.phi_T) / abs(target.phi_T),
    }


#: Weight of the stationarity anchors in the calibration loss.
STATIONARITY_WEIGHT = 0.01


def _stationarity_residuals(params: ModelParameters,
                            target: CalibrationTarget) -> list[float]:
    """Scaled profit gradients at the target decisions.

    A target row records a re-optimized decision vector, so the joint
    profit is stationary there in every interior coordinate.  That is the
    only information in the row that separates the preservation
    efficiencies from the carbon price (the three profit values alone
    admit a one-dimensional family of exact fits), so the scaled gradients
    in xi1, xi2 and G join the loss as soft anchors.  Coordinates at the
    domain boundary (near-zero investments) are skipped: they need not be
    stationary.
    """
    d = target.decisions
    scale = abs(target.phi_T)
    residuals = []
    for name, value in (("xi1", d.xi1), ("xi2", d.xi2), ("G", d.G)):
        if value <= 1e-3:
            continue
        h = max(1e-4 * value, 1e-5)
        lo = evaluate_policy(params, dataclasses.replace(d, **{name: value - h}),
                             "tax").value
        hi = evaluate_policy(params, dataclasses.replace(d, **{name: value + h}),
                             "tax").value
        residuals.append((hi - lo) / (2.0 * h) * value / scale)
    return residuals


def calibrate_missing_defaults(target: CalibrationTarget = DEFAULT_CALIBRATION_TARGET,
                               base_values: dict | None = None,
                               tolerance: float = 0.01) -> CalibrationResult:
    """Fit (v1, v2, C_Tax) to a reference operating point.

    Grid search over plausible magnitudes followed by a Nelder-Mead polish.
    The loss is the summed squared relative error of (Z_m, Z_r, phi_T) at
    the fixed target decisions plus lightly weighted stationarity anchors
    (see _stationarity_residuals).  Never silently succeeds: the result
    carries the residual (profit errors only), a pass/fail verdict at
    `tolerance`, and per-coordinate identifiability flags.  A zero or
    non-finite target profit has no relative error and is refused.
    """
    unusable = [name for name in ("Z_m", "Z_r", "phi_T")
                if not 0.0 < abs(getattr(target, name)) < math.inf]
    if unusable:
        raise ValueError("calibration target profits must be finite and "
                         "nonzero: " + ", ".join(unusable))
    # scipy is loaded here, not at import: nothing else in the package
    # needs it, and it is most of the start-up time.
    from scipy import optimize as sciopt

    base = dict(TABLE_DEFAULTS)
    if base_values:
        base.update(base_values)
    base.pop("v1", None)
    base.pop("v2", None)
    base.pop("C_Tax", None)

    def build(v1, v2, c_tax):
        return ModelParameters(v1=v1, v2=v2, C_Tax=c_tax, **base)

    def profit_sse(x) -> float:
        lv1, lv2, c_tax = x
        v1, v2 = math.exp(lv1), math.exp(lv2)
        if not (1e-6 < v1 < 10.0 and 1e-6 < v2 < 10.0 and -1e-9 <= c_tax < 1e3):
            return 1e6
        try:
            errors = _target_errors(build(v1, v2, max(c_tax, 0.0)), target)
        except (DomainError, ParameterError):
            return 1e6
        return sum(e * e for e in errors.values())

    def objective(x) -> float:
        sse = profit_sse(x)
        if sse >= 1e6:
            return sse
        v1, v2 = math.exp(x[0]), math.exp(x[1])
        try:
            anchors = _stationarity_residuals(
                build(v1, v2, max(float(x[2]), 0.0)), target)
        except (DomainError, ParameterError):
            return 1e6
        return sse + STATIONARITY_WEIGHT * sum(g * g for g in anchors)

    # Coarse grid on the profit errors alone.
    v_grid = np.log(np.geomspace(2e-3, 0.5, 14))
    c_grid = np.linspace(0.0, 8.0, 9)
    best_x, best_f = None, math.inf
    for lv1 in v_grid:
        for lv2 in v_grid:
            for c in c_grid:
                f = profit_sse((lv1, lv2, c))
                if f < best_f:
                    best_f, best_x = f, (lv1, lv2, c)

    # The profit errors admit a flat valley (several triples reproduce the
    # three values exactly), so profile it: for each v2 candidate fit
    # (v1, C_Tax) to the profits, then let the stationarity anchors pick
    # the point along the valley.  Warm-starting each profile fit from the
    # previous one follows the valley smoothly.
    warm = np.array([best_x[0], best_x[2]])
    profiled = []
    for lv2 in np.log(np.geomspace(2e-3, 0.5, 28)):
        fit = sciopt.minimize(
            lambda y: profit_sse((y[0], lv2, y[1])), warm,
            method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": 1e-24,
                     "maxiter": 1500, "maxfev": 3000})
        warm = fit.x
        profiled.append((objective((fit.x[0], lv2, fit.x[1])),
                         np.array([fit.x[0], lv2, fit.x[1]])))
    start = min(profiled, key=lambda t: t[0])[1]
    if objective(np.array(best_x)) < objective(start):
        start = np.array(best_x)

    polish = sciopt.minimize(objective, start, method="Nelder-Mead",
                             options={"xatol": 1e-10, "fatol": 1e-20,
                                      "maxiter": 4000, "maxfev": 8000})
    x = polish.x if polish.fun <= objective(start) else start
    v1, v2, c_tax = math.exp(x[0]), math.exp(x[1]), max(float(x[2]), 0.0)

    fitted = build(v1, v2, c_tax)
    errors = _target_errors(fitted, target)
    residual = max(abs(e) for e in errors.values())

    f0 = objective(x)
    identifiable = {}
    for name, k, step in (("v1", 0, 0.05), ("v2", 1, 0.05), ("C_Tax", 2, None)):
        delta = step if step is not None else max(0.1 * abs(x[2]), 0.05)
        moved = 0.0
        for probe in (x + delta * np.eye(3)[k], x - delta * np.eye(3)[k]):
            f_probe = objective(probe)
            if f_probe < 1e5:  # skip probes rejected by the bound guard
                moved = max(moved, abs(f_probe - f0))
        identifiable[name] = bool(moved > 1e-12 * (1.0 + abs(f0)))

    return CalibrationResult(
        v1=v1, v2=v2, C_Tax=c_tax, residual=residual,
        ok=bool(residual <= tolerance), tolerance=tolerance,
        errors=errors, identifiable=identifiable, params=fitted)


def calibrated_parameters(base_values: dict | None = None,
                          target: CalibrationTarget = DEFAULT_CALIBRATION_TARGET
                          ) -> CalibrationResult:
    """Calibrate and mirror the fitted tax price onto the trading price.

    The trading price has no published value either; reproduction runs use
    a symmetric market at the fitted tax level.
    """
    result = calibrate_missing_defaults(target, base_values)
    result.params = result.params.replace(C_CT=result.C_Tax)
    return result
