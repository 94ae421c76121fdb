"""One-at-a-time parameter sweeps and calibration of the missing constants.

A sweep perturbs one exogenous parameter over relative levels (default
-40..+40 %), re-optimizes the five decision variables at every level from
the same seed, and reports the re-optimized decisions, per-player profits
and the joint-profit percent change against the 0 % row.

``calibrate_missing_defaults`` fits the constants that the published
default table omits (v1, v2 and the carbon tax price), in NumPy alone, so
that the model reproduces a reference operating point: a known decision
vector together with its per-player and joint profits under the tax policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels as K
from .kernels import PARAM_ORDER
from .model import DECISION_NAMES, DecisionVector
# `run` and `evaluate_policy` are not called here; they stay importable
# from this module for callers that wrap them by attribute.
from .optimize import (OptimizerConfig, default_search_space, run,  # noqa: F401
                       run_many)
from .params import ModelParameters, ParameterError
from .policy import POLICY_IDS, evaluate_policy, make_batch_objective  # noqa: F401

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
    decisions: DecisionVector | None = None   # None: re-optimize every level

    def validate(self) -> None:
        if self.parameter not in PARAM_ORDER:
            raise ValueError(f"unknown parameter {self.parameter!r}")
        if 0.0 not in self.levels:
            raise ValueError("sweep levels must include 0")


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
    """One row per level: re-optimized from the same seed, or evaluated at
    `spec.decisions` when those are given.

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


def _evaluate_levels(policy: str, points: dict) -> dict:
    """(decisions, Z_m, Z_r, phi_T) of each ``(level parameters, decisions)``
    point by key, but for the rows the model refuses: one twin call, each
    row under its level's parameters, so ``evaluate_policy``'s bit for bit."""
    if not points:
        return {}
    vectors = np.array([lp.as_array() for lp, _ in points.values()])
    X = np.array([d.as_array() for _, d in points.values()])
    values, _, _, status, _, phi_m, phi_r = K.evaluate_terms(
        POLICY_IDS[policy], X, K.slot_layout(vectors, len(X)))
    rows = zip(points.items(), status == K.OK, phi_m.tolist(), phi_r.tolist(),
               values.tolist())
    return {key: (d, z_m, z_r, phi_t) for (key, (_, d)), ok, z_m, z_r, phi_t in rows if ok}


def _run_sweeps(spec: SweepSpec, names, params: ModelParameters) -> list[list[SweepRow]]:
    """Rows of the sweep `spec` for each parameter in `names`; every
    re-optimized level of every sweep shares one ``run_many`` call."""
    plans = [_sweep_levels(replace(spec, parameter=name), params) for name in names]
    pending = [(i, j, level_params) for i, plan in enumerate(plans)
               for j, (_, level_params) in enumerate(plan) if level_params is not None]
    results = {}
    fixed = spec.decisions
    if fixed is None and pending:
        found = run_many(
            [default_search_space(lp) for _, _, lp in pending], spec.optimizer,
            [spec.optimizer.seed] * len(pending),
            make_batch_objective([lp for _, _, lp in pending], spec.policy))
        results = {(i, j): result for (i, j, _), result in zip(pending, found)}

    # Each level is evaluated at its re-optimized incumbent (none where the
    # model rejected every candidate) or at the fixed decisions.
    points = {(i, j): (lp, results[(i, j)].decisions if fixed is None else fixed)
              for i, j, lp in pending
              if fixed is not None or np.isfinite(results[(i, j)].best_value)}
    evaluated = _evaluate_levels(spec.policy, points)
    sweeps = []
    for i, plan in enumerate(plans):
        rows = [SweepRow(level, True, *evaluated[(i, j)]) if (i, j) in evaluated
                else SweepRow(level, False, None, math.nan, math.nan, math.nan)
                for j, (level, _) in enumerate(plan)]
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
    """``residuals(vectors) -> (r0, s, ok)``: at each row of `vectors`, a
    (B, N_PARAMS) array of packed parameter vectors, the calibration
    residuals are ``r0 + C_Tax * s`` (r0 and s are (B, m)); ok is False
    where the twin refuses a decision row.

    They are the relative errors of (Z_m, Z_r, phi_T) at the target
    decisions, then stationarity anchors; the loss is their sum of
    squares.  A target row records a re-optimized decision vector, so the
    joint profit is stationary there in every interior coordinate.  That
    is the only information in the row that separates the preservation
    efficiencies from the carbon price (the three profits alone admit a
    one-dimensional family of exact fits), so the scaled central
    differences in xi1, xi2 and G are the anchors.  Near-zero investments
    lie on the domain boundary, need not be stationary and are skipped.

    The terms do not depend on the carbon price and the tax charges are
    linear in it, so the profits at C_Tax = 0 and 1 (written over the
    vectors' C_Tax) give r0 and s: one twin call on every decision row
    under every vector at both prices.
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

    def residuals(vectors: np.ndarray) -> tuple:
        priced = np.repeat(vectors, 2, axis=0)
        priced[:, K.P_C_TAX] = np.tile([0.0, 1.0], len(vectors))
        n = len(priced) * len(rows)
        values, _, valid, _, _, phi_m, phi_r = K.evaluate_terms(
            K.POLICY_TAX, np.tile(rows, (len(priced), 1)), K.slot_layout(priced, n))
        # profits[b, c, i] = (joint, manufacturer, retailer) of row i under
        # vector b at C_Tax = c
        profits = np.stack([values, phi_m, phi_r], axis=1).reshape(
            len(vectors), 2, len(rows), 3)
        r = np.concatenate(((profits[:, :, 0, [1, 2, 0]] - goal) / np.abs(goal),
                            (profits[:, :, 2::2, 0] - profits[:, :, 1::2, 0]) * weights),
                           axis=2)
        return r[:, 0], r[:, 1] - r[:, 0], valid.reshape(len(vectors), -1).all(axis=1)

    return residuals


def calibrate_missing_defaults(target: CalibrationTarget = DEFAULT_CALIBRATION_TARGET,
                               base_values: dict | None = None) -> CalibrationResult:
    """Fit (v1, v2, C_Tax) to a reference operating point.

    The loss is the summed squared relative error of (Z_m, Z_r, phi_T) at
    the fixed target decisions plus lightly weighted stationarity anchors
    (see `calibration_residuals`).  Every residual is affine in C_Tax, so
    at each (v1, v2) the best C_Tax is a clipped least-squares step
    (variable projection, Golub & Pereyra 1973) and only (log v1, log v2)
    is searched: a 28 x 28 grid, then a pattern search (Hooke & Jeeves
    1961) from the grid spacing down to 1e-10, one 5 x 5 stencil per twin
    call.  Never silently succeeds: a fit whose loss is unusable (1e6) is
    refused, and the result carries the residual (profit errors only), a
    pass/fail verdict at CALIBRATION_TOLERANCE and per-coordinate
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
    # Validated once; the search writes only the v1, v2 and C_Tax slots,
    # inside the box v1, v2 in (1e-6, 10), C_Tax in [0, 1e3].
    start = ModelParameters.from_dict(
        {**(base_values or {}), "v1": 1.0, "v2": 1.0, "C_Tax": 0.0})
    base = start.as_array()
    residuals = calibration_residuals(target)

    def project(lv):
        """(residuals, loss, C_Tax, <s, s>) at the best C_Tax for each row
        (log v1, log v2) of `lv`.  The loss is 1e6 outside the box, outside
        the model's domain and where the profits are not finite."""
        with np.errstate(all="ignore"):
            v = np.exp(lv)
            vectors = np.tile(base, (len(lv), 1))
            vectors[:, [K.P_V1, K.P_V2]] = v
            r0, s, ok = residuals(vectors)
            ss = np.einsum("ij,ij->i", s, s)
            c_tax = np.where(ss > 0.0, np.clip(-np.einsum("ij,ij->i", r0, s) / ss,
                                               0.0, 1e3), 0.0)
            r = r0 + c_tax[:, None] * s
            f = np.einsum("ij,ij->i", r, r)
        usable = ok & ((v > 1e-6) & (v < 10.0)).all(axis=1) & (f < 1e6)
        return r, np.where(usable, f, 1e6), c_tax, ss

    axis = np.log(np.geomspace(2e-3, 0.5, 28))
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    lv = grid[np.argmin(project(grid)[1])]
    # Move to the stencil's best point, or quarter the step if it is the centre.
    stencil = np.array([(0, 0)] + [(i, j) for i in range(-2, 3)
                                   for j in range(-2, 3) if i or j], dtype=float)
    step = axis[1] - axis[0]
    while step > 1e-10:
        k = int(np.argmin(project(lv + step * stencil)[1]))
        lv, step = lv + step * stencil[k], (step if k else step / 4.0)
    # Row 0 is the fit; rows 1-4 step log v1, then log v2, by +0.05 and -0.05.
    r, f, c_tax, ss = project(lv + np.array([[0.0, 0.0], [0.05, 0.0], [-0.05, 0.0],
                                             [0.0, 0.05], [0.0, -0.05]]))
    if f[0] >= 1e6:
        raise ValueError("calibration target: the model rejects its decisions, "
                         "or their profits are not finite, at every v1, v2 tried")
    f0, c_tax = float(f[0]), float(c_tax[0])
    v1, v2 = math.exp(lv[0]), math.exp(lv[1])
    errors = dict(zip(("Z_m", "Z_r", "phi_T"), r[0, :3].tolist()))
    residual = max(abs(e) for e in errors.values())

    identifiable = {}
    for name, probes in (("v1", f[1:3]), ("v2", f[3:5])):
        moved = max((abs(f_probe - f0) for f_probe in probes.tolist()
                     if f_probe < 1e6), default=0.0)
        identifiable[name] = bool(moved > 1e-12 * (1.0 + abs(f0)))
    identifiable["C_Tax"] = bool(ss[0] > 0.0)

    return CalibrationResult(
        v1=v1, v2=v2, C_Tax=c_tax, residual=residual,
        ok=bool(residual <= CALIBRATION_TOLERANCE), errors=errors,
        identifiable=identifiable,
        params=start.replace(v1=v1, v2=v2, C_Tax=c_tax, C_CT=c_tax))

