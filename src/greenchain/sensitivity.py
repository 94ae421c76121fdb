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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels as K
from .kernels import PARAM_ORDER
from .model import DECISION_NAMES, DecisionVector, DomainError
# `run` is not called here; it stays importable from this module for
# callers that wrap it by attribute.
from .optimize import (OptimizerConfig, default_search_space, run,  # noqa: F401
                       run_many)
from .params import ModelParameters, ParameterError
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
    return _run_sweeps(spec, [spec.parameter], params)[0]


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


def _run_sweeps(spec: SweepSpec, names, params: ModelParameters) -> list[list[SweepRow]]:
    """Rows of the sweep `spec` for each parameter in `names`; every
    re-optimized level of every sweep shares one ``run_many`` call."""
    plans = [_sweep_levels(replace(spec, parameter=name), params) for name in names]
    pending = [(i, j, level_params) for i, plan in enumerate(plans)
               for j, (_, level_params) in enumerate(plan) if level_params is not None]
    results = {}
    if spec.reoptimize and pending:
        found = run_many(
            [default_search_space(lp) for _, _, lp in pending], spec.optimizer,
            [spec.optimizer.seed] * len(pending),
            make_batch_objective([lp for _, _, lp in pending], spec.policy))
        results = {(i, j): result for (i, j, _), result in zip(pending, found)}

    sweeps = []
    for i, plan in enumerate(plans):
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


def direction_report(params: ModelParameters, optimizer: OptimizerConfig) -> dict:
    """Sweep every parameter of EXPECTED_DECREASING and EXPECTED_INCREASING
    under the tax policy and verify the profit slope sign.

    All levels of all sweeps run in one lockstep call.
    """
    names = EXPECTED_DECREASING + EXPECTED_INCREASING
    spec = SweepSpec(parameter=names[0], optimizer=optimizer)
    checks = {}
    for name, rows in zip(names, _run_sweeps(spec, names, params)):
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

#: Largest relative profit error a successful calibration leaves.
CALIBRATION_TOLERANCE = 0.01


@dataclass
class CalibrationResult:
    """Fitted triple plus the achieved reproduction quality."""

    v1: float
    v2: float
    C_Tax: float
    residual: float               # max |relative error| over the 3 targets
    ok: bool                      # residual <= CALIBRATION_TOLERANCE
    errors: dict                  # per-target relative errors
    identifiable: dict            # per-coordinate sensitivity flags
    params: ModelParameters       # base parameters with the fit applied

    def report(self) -> dict:
        return {
            "fitted": {"v1": self.v1, "v2": self.v2, "C_Tax": self.C_Tax},
            "residual": self.residual,
            "ok": self.ok,
            "tolerance": CALIBRATION_TOLERANCE,
            "relative_errors": self.errors,
            "identifiable": self.identifiable,
        }


#: Weight of the stationarity anchors in the calibration loss.
STATIONARITY_WEIGHT = 0.01


def calibration_residuals(target: CalibrationTarget):
    """``residuals(p) -> (r0, s)``: at the v1 and v2 of the packed
    parameter list `p`, the calibration residuals are ``r0 + C_Tax * s``.

    They are the relative errors of (Z_m, Z_r, phi_T) at the target
    decisions, then stationarity anchors; the loss is their sum of
    squares.  A target row records a re-optimized decision vector, so the
    joint profit is stationary there in every interior coordinate.  That
    is the only information in the row that separates the preservation
    efficiencies from the carbon price (the three profits alone admit a
    one-dimensional family of exact fits), so the scaled central
    differences in xi1, xi2 and G are the anchors.  Near-zero investments
    lie on the domain boundary, need not be stationary and are skipped.

    The kernel's terms do not depend on the carbon price and the tax
    charges are linear in it, so one kernel call per decision row and two
    policy compositions (C_Tax = 0 and 1, written into `p`) give r0 and s.
    On Python floats the scalar kernel runs about three times faster than
    on NumPy scalars, and raises ArithmeticError where NumPy would warn.
    Raises DomainError when the kernel rejects a row.
    """
    d = target.decisions.as_array().tolist()
    rows, weights = [d], []
    for k in (DECISION_NAMES.index(name) for name in ("xi1", "xi2", "G")):
        if d[k] <= 1e-3:
            continue
        h = max(1e-4 * d[k], 1e-5)
        rows += [d[:k] + [d[k] + step] + d[k + 1:] for step in (-h, h)]
        weights.append(math.sqrt(STATIONARITY_WEIGHT) * d[k]
                       / (2.0 * h * abs(target.phi_T)))
    goal = np.array([target.Z_m, target.Z_r, target.phi_T])
    terms = [0.0] * K.N_TERMS

    def residuals(p: list) -> tuple[np.ndarray, np.ndarray]:
        # values[c, i] = (joint, manufacturer, retailer) profit of row i at C_Tax = c
        values = np.empty((2, len(rows), 3))
        for i, row in enumerate(rows):
            status = K.evaluate_terms(*row, p, terms)
            if status != K.OK:
                raise DomainError(status)
            for c in (0, 1):
                p[K.P_C_TAX] = c
                values[c, i] = K.policy_value_from_terms(
                    K.POLICY_TAX, row[3], p, terms)[:3]
        r = np.column_stack(((values[:, 0, [1, 2, 0]] - goal) / np.abs(goal),
                             (values[:, 2::2, 0] - values[:, 1::2, 0]) * weights))
        return r[0], r[1] - r[0]

    return residuals


def calibrate_missing_defaults(target: CalibrationTarget = DEFAULT_CALIBRATION_TARGET,
                               base_values: dict | None = None) -> CalibrationResult:
    """Fit (v1, v2, C_Tax) to a reference operating point.

    The loss is the summed squared relative error of (Z_m, Z_r, phi_T) at
    the fixed target decisions plus lightly weighted stationarity anchors
    (see `calibration_residuals`).  Every residual is affine in C_Tax, so
    at each (v1, v2) the best C_Tax is a clipped least-squares step
    (variable projection, Golub & Pereyra 1973) and only (log v1, log v2)
    is searched: a 28 x 28 grid, then a Nelder-Mead polish.  Never silently
    succeeds: the result carries the residual (profit errors only), a
    pass/fail verdict at CALIBRATION_TOLERANCE, and per-coordinate
    identifiability flags.  A zero or non-finite target profit has no
    relative error and is refused.  `base_values` is a parameter document
    (``ModelParameters.from_dict``); its v1, v2 and C_Tax are not read.
    The trading price has no published value either, so `result.params`
    mirrors the fitted tax price onto C_CT: reproduction runs use a
    symmetric market at the fitted tax level.
    """
    unusable = [name for name in ("Z_m", "Z_r", "phi_T")
                if not 0.0 < abs(getattr(target, name)) < math.inf]
    if unusable:
        raise ValueError("calibration target profits must be finite and "
                         "nonzero: " + ", ".join(unusable))
    # scipy is loaded here, not at import: nothing else in the package
    # needs it, and it is most of the start-up time.
    from scipy import optimize as sciopt

    # Validated once; the search writes only the v1, v2 and C_Tax slots,
    # inside the box v1, v2 in (1e-6, 10), C_Tax in [0, 1e3].
    start = ModelParameters.from_dict(
        {**(base_values or {}), "v1": 1.0, "v2": 1.0, "C_Tax": 0.0})
    p = start.as_array().tolist()
    residuals = calibration_residuals(target)

    def project(lv):
        """(residuals, loss, C_Tax, <s, s>) at the best C_Tax for (log v1, log v2);
        profits that overflow give a non-finite loss, not a NumPy warning."""
        p[K.P_V1], p[K.P_V2] = math.exp(lv[0]), math.exp(lv[1])
        with np.errstate(over="ignore", invalid="ignore"):
            r0, s = residuals(p)
            ss = float(s @ s)
            c_tax = min(max(-float(r0 @ s) / ss, 0.0), 1e3) if ss > 0.0 else 0.0
            r = r0 + c_tax * s
            return r, float(r @ r), c_tax, ss

    def loss(lv) -> float:
        # 1e6 outside the box, outside the model's domain and where the
        # profits are not finite
        if not all(1e-6 < math.exp(x) < 10.0 for x in lv):
            return 1e6
        try:
            f = project(lv)[1]
        except (DomainError, ArithmeticError):
            return 1e6
        return f if f < 1e6 else 1e6

    grid = np.log(np.geomspace(2e-3, 0.5, 28))
    best = min(((lv1, lv2) for lv1 in grid for lv2 in grid), key=loss)
    lv = sciopt.minimize(loss, np.array(best), method="Nelder-Mead",
                         options={"xatol": 1e-10, "fatol": math.inf}).x
    if loss(lv) >= 1e6:
        raise ValueError("calibration target: the model rejects its decisions, "
                         "or their profits are not finite, at every v1, v2 tried")
    r, f0, c_tax, ss = project(lv)
    v1, v2 = math.exp(lv[0]), math.exp(lv[1])
    errors = dict(zip(("Z_m", "Z_r", "phi_T"), r[:3].tolist()))
    residual = max(abs(e) for e in errors.values())

    identifiable = {}
    for name, k in (("v1", 0), ("v2", 1)):
        moved = 0.0
        for step in (0.05, -0.05):
            probe = lv.copy()
            probe[k] += step
            f_probe = loss(probe)
            if f_probe < 1e6:
                moved = max(moved, abs(f_probe - f0))
        identifiable[name] = bool(moved > 1e-12 * (1.0 + abs(f0)))
    identifiable["C_Tax"] = ss > 0.0

    return CalibrationResult(
        v1=v1, v2=v2, C_Tax=c_tax, residual=residual,
        ok=bool(residual <= CALIBRATION_TOLERANCE), errors=errors,
        identifiable=identifiable,
        params=start.replace(v1=v1, v2=v2, C_Tax=c_tax, C_CT=c_tax))

