"""The benchmark's workloads: inputs drawn from a seed, tasks, and checks.

A workload builds one round of tasks from its seed.  The runner repeats
the round until the timed phase is long enough, times `run(task)` alone
and calls `check(task, result)` and `check_round(results)` between tasks,
outside the timing.  Checks return a list of problems; they rely on
computations made apart from the code under test (the scalar path against
the NumPy batch twin and back) or on properties the method must have.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from greenchain import cli, kernels, sensitivity
from greenchain.model import DecisionVector, DomainError
from greenchain.optimize import (DECISION_NAMES, OptimizerConfig,
                                 default_search_space, run as run_optimizer)
from greenchain.params import ModelParameters
from greenchain.policy import (evaluate_policy, green_reduction,
                               make_batch_objective)

#: The fitted constants the published default table omits (README).
REFERENCE_CONSTANTS = {"v1": 0.0386, "v2": 0.0549, "C_Tax": 2.108, "C_CT": 2.108}
#: The paper's joint profit at the tax optimum.
PAPER_TAX_OPTIMUM = 66795.32
#: Paper's C_p sweep: joint-profit change (%) per level.
PAPER_CP_PATTERN = {-40.0: 3.3713, -20.0: 1.6857, 20.0: -1.6857, 40.0: -3.3713}
POLICIES = ("tax", "cap_trade", "limited")
ALGORITHMS = ("de1", "de2", "pso")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _batch_value(params: ModelParameters, x) -> float:
    """Tax profit of one row through the NumPy batch twin, not the scalar path."""
    values, _, valid = kernels.evaluate_policy_batch_numpy(
        kernels.POLICY_TAX, np.asarray(x, dtype=np.float64)[None, :],
        params.as_array())
    return float(values[0]) if valid[0] else math.nan


def _drawn_constants(rng) -> dict:
    """(v1, v2, C_Tax) drawn as the reference triple times U(0.8, 1.25)."""
    v1, v2, c_tax = (REFERENCE_CONSTANTS[k] * rng.uniform(0.8, 1.25)
                     for k in ("v1", "v2", "C_Tax"))
    return {"v1": v1, "v2": v2, "C_Tax": c_tax, "C_CT": c_tax}


class _CliWorkload:
    """Shared plumbing for workloads that drive `greenchain.cli.main`."""

    def __init__(self, work: Path):
        self.work = work
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)

    def _config(self, name: str, doc: dict) -> str:
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _main(self, argv) -> str:
        """Run one CLI command in-process; its standard output."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"greenchain {' '.join(argv)} exited {rc}")
        return sink.getvalue()

    def _collect_outputs(self) -> int:
        """Bytes the task wrote; empties the output directory."""
        written = sum(p.stat().st_size for p in self.out.iterdir())
        shutil.rmtree(self.out)
        self.out.mkdir()
        return written


class Optimize(_CliWorkload):
    """`greenchain optimize`, once per task, over algorithm x policy x seed."""

    # PSO under the limited policy stops more than 1e-3 short of the optimum
    # on about one seed in fifteen; the agreement check compares the best
    # of four seeds per pair.
    SEEDS_PER_PAIR = 4

    def __init__(self, seed: int, work: Path):
        super().__init__(work)
        self.params = ModelParameters.from_dict(REFERENCE_CONSTANTS)
        self.space = default_search_space(self.params)
        self.config = self._config("optimize", {"parameters": REFERENCE_CONSTANTS})
        rng = np.random.default_rng(seed)
        seeds = rng.choice(2 ** 31, size=self.SEEDS_PER_PAIR * 9, replace=False)
        pairs = [(a, p) for p in POLICIES for a in ALGORITHMS]
        self.tasks = [(algo, policy, int(seeds[k * 9 + j]))
                      for k in range(self.SEEDS_PER_PAIR)
                      for j, (algo, policy) in enumerate(pairs)]
        self.first_round = None

    def run(self, task):
        algo, policy, seed = task
        self._main(["--config", self.config, "--out", str(self.out),
                    "--policy", policy, "--seed", str(seed),
                    "optimize", "--algo", algo])

    def check(self, task, result):
        algo, policy, seed = task
        stem = f"{algo}_{policy}_seed{seed}"
        best = json.loads((self.out / f"best_{stem}.json").read_text())
        lines = (self.out / f"history_{stem}.csv").read_text().splitlines()[1:]
        history = [float(line.split(",")[1]) for line in lines]
        problems = []
        x = np.array([best["best_decisions"][n] for n in DECISION_NAMES])
        decisions = DecisionVector.from_array(x)
        scalar = evaluate_policy(self.params, decisions, policy)
        if _rel(best["best_value"], scalar.value) > 1e-9:
            problems.append(f"{stem}: best {best['best_value']!r} vs scalar "
                            f"{scalar.value!r}")
        if not np.all((x >= self.space.lower) & (x <= self.space.upper)):
            problems.append(f"{stem}: best vector {x} outside the box")
        cfg = OptimizerConfig(algorithm=algo, seed=seed)
        iters = cfg.resolved_iters()
        if len(history) != iters + 1:
            problems.append(f"{stem}: {len(history)} history rows, want {iters + 1}")
        if any(b < a for a, b in zip(history, history[1:])):
            problems.append(f"{stem}: history decreases")
        if best["evaluations"] != cfg.pop_size * (iters + 1):
            problems.append(f"{stem}: {best['evaluations']} evaluations")
        if policy == "limited":
            d = scalar.diagnostics
            slack = (d.CarC_m + d.CarC_r
                     - green_reduction(decisions.G, self.params).rho_G
                     - self.params.U2)
            if slack > 1e-6:
                problems.append(f"{stem}: emission cap exceeded by {slack}")
        return problems, best["best_value"], self._collect_outputs()

    def check_round(self, values):
        problems = []
        if self.first_round is None:
            self.first_round = values
        elif values != self.first_round:
            problems.append("optimize: a repeated round gave other results")
        for policy in POLICIES:
            best = {a: max(v for (algo, pol, _), v in zip(self.tasks, values)
                           if (algo, pol) == (a, policy))
                    for a in ALGORITHMS}
            top = max(best.values())
            if any(_rel(v, top) > 1e-3 for v in best.values()):
                problems.append(f"optimize {policy}: algorithms disagree {best}")
            if policy == "tax" and _rel(top, PAPER_TAX_OPTIMUM) > 1e-3:
                problems.append(f"optimize tax: optimum {top} vs paper "
                                f"{PAPER_TAX_OPTIMUM}")
        return problems


class Sweep:
    """One re-optimised five-level `run_sweep` (PSO) per task."""

    PARAMETERS = sensitivity.EXPECTED_DECREASING + sensitivity.EXPECTED_INCREASING

    def __init__(self, seed: int, work: Path):
        self.params = ModelParameters.from_dict(REFERENCE_CONSTANTS)
        rng = np.random.default_rng(seed)
        seeds = rng.choice(2 ** 31, size=len(self.PARAMETERS), replace=False)
        self.tasks = list(zip(self.PARAMETERS, (int(s) for s in seeds)))

    def run(self, task):
        name, seed = task
        spec = sensitivity.SweepSpec(
            parameter=name, optimizer=OptimizerConfig(algorithm="pso", seed=seed))
        return sensitivity.run_sweep(spec, self.params)

    def check(self, task, rows):
        name, seed = task
        problems = []
        if not all(r.feasible for r in rows):
            return [f"sweep {name}: infeasible level"], None, 0
        for r in rows:
            level_params = self.params.replace(
                **{name: getattr(self.params, name) * (1.0 + r.level / 100.0)})
            twin = _batch_value(level_params, r.decisions.as_array())
            if _rel(r.phi_T, twin) > 1e-9:
                problems.append(f"sweep {name} {r.level}: {r.phi_T!r} vs twin {twin!r}")
        slope = np.polyfit([r.level for r in rows], [r.phi_T for r in rows], 1)[0]
        want_negative = name in sensitivity.EXPECTED_DECREASING
        if not (slope < 0 if want_negative else slope > 0):
            problems.append(f"sweep {name} (seed {seed}): slope {slope} has the "
                            "wrong sign")
        if name == "C_p":
            seen = {r.level: r.pct_change for r in rows}
            worst = max(abs(seen[k] - v) for k, v in PAPER_CP_PATTERN.items())
            if worst > 0.3:
                problems.append(f"sweep C_p: {worst:.3f} pp from the paper")
        return problems, None, 0

    def check_round(self, values):
        return []


class Inspect(_CliWorkload):
    """`evaluate`, `surface` (~1e5 cells) and `anfis` at one operating point.

    An operating point is the tax optimum for constants drawn around the
    reference triple: the decisions a user would inspect.
    """

    POINTS = 4
    N1, N2 = 320, 320
    RANGE1 = (0.05, 12.0)     # T0: long cycles at low W_r end in backlog
    RANGE2 = (80.0, 320.0)    # W_r: past a/b = 300 demand turns negative
    SAMPLE = 300

    def __init__(self, seed: int, work: Path):
        super().__init__(work)
        rng = np.random.default_rng(seed)
        self.check_rng = np.random.default_rng(seed + 1)
        self.tasks = []
        for k in range(self.POINTS):
            constants = _drawn_constants(rng)
            params = ModelParameters.from_dict(constants)
            optimum = max(
                (run_optimizer(default_search_space(params),
                               OptimizerConfig(algorithm="de1", seed=int(s)),
                               make_batch_objective(params, "tax"))
                 for s in rng.choice(2 ** 31, size=2, replace=False)),
                key=lambda r: r.best_value)
            config = self._config(f"inspect{k}", {
                "parameters": constants, "policy": "tax",
                "decisions": optimum.decisions.to_dict()})
            self.tasks.append((config, params, optimum))

    def run(self, task):
        config = task[0]
        base = ["--config", config, "--out", str(self.out)]
        self._main(base + ["evaluate"])
        self._main(base + ["surface", "--vars", "T0", "W_r",
                           "--range1", *map(str, self.RANGE1),
                           "--range2", *map(str, self.RANGE2),
                           "--n1", str(self.N1), "--n2", str(self.N2)])
        return self._main(base + ["anfis", "--variable", "T0", "--points", "61",
                                  "--range", "0.05", "1.5"])

    def check(self, task, anfis_stdout):
        _, params, optimum = task
        problems = (self._check_evaluate()
                    + self._check_surface(params, optimum)
                    + self._check_anfis(params, optimum, anfis_stdout))
        return problems, None, self._collect_outputs()

    def check_round(self, values):
        return []

    def _check_evaluate(self):
        doc = json.loads((self.out / "evaluate.json").read_text())["policy_result"]
        if _rel(doc["phi_m"] + doc["phi_r"], doc["value"]) > 1e-12:
            return [f"evaluate: phi_T {doc['value']} != phi_m + phi_r"]
        return []

    def _check_surface(self, params, optimum):
        lines = (self.out / "surface_T0_W_r.csv").read_text().splitlines()[1:]
        if len(lines) != self.N1 * self.N2:
            return [f"surface: {len(lines)} cells, want {self.N1 * self.N2}"]
        valid = np.array([not line.endswith(",") for line in lines])
        if valid.all() or not valid.any():
            return ["surface: the grid has no domain boundary to check"]
        top = max(float(line.rsplit(",", 1)[1])
                  for line, ok in zip(lines, valid) if ok)
        problems = []
        if top > optimum.best_value * (1.0 + 1e-9):
            problems.append(f"surface: cell {top} above the optimum "
                            f"{optimum.best_value}")
        grid = valid.reshape(self.N1, self.N2)
        edge = np.zeros_like(grid)
        edge[1:] |= grid[1:] != grid[:-1]
        edge[:-1] |= grid[1:] != grid[:-1]
        edge[:, 1:] |= grid[:, 1:] != grid[:, :-1]
        edge[:, :-1] |= grid[:, 1:] != grid[:, :-1]
        edge_cells = np.flatnonzero(edge)
        sample = np.union1d(
            self.check_rng.choice(len(lines), size=self.SAMPLE, replace=False),
            self.check_rng.choice(edge_cells, size=min(self.SAMPLE, len(edge_cells)),
                                  replace=False))
        point = optimum.decisions.to_dict()
        for i in sample:
            t0, w_r, cell = lines[i].split(",")
            decisions = DecisionVector.from_dict({**point, "T0": float(t0),
                                                  "W_r": float(w_r)})
            try:
                scalar = evaluate_policy(params, decisions, "tax").value
            except DomainError:
                scalar = None
            if (scalar is None) != (cell == ""):
                problems.append(f"surface cell {i}: csv {cell!r}, scalar {scalar}")
            elif scalar is not None and _rel(float(cell), scalar) > 1e-9:
                problems.append(f"surface cell {i}: {cell} vs scalar {scalar!r}")
        return problems

    def _check_anfis(self, params, optimum, stdout):
        problems = []
        architecture = {"nodes": 24, "rules": 5, "linear_parameters": 10,
                        "nonlinear_parameters": 20}
        printed = [ast.literal_eval(line.split(": ", 1)[1])
                   for line in stdout.splitlines()
                   if line.startswith("architecture: ")]
        if printed != [architecture]:
            problems.append(f"anfis: architecture {printed}, want {architecture}")
        model = json.loads((self.out / "anfis_T0.json").read_text())
        corners = sum(len(mf["corners"]) for mf in model["mfs"])
        linear = np.asarray(model["consequents"]).size
        if (corners, linear) != (20, 10):
            problems.append(f"anfis: model holds {corners} corners, {linear} "
                            "consequent coefficients")
        table = np.loadtxt(self.out / "anfis_T0_predictions.csv",
                           delimiter=",", skiprows=1, ndmin=2)
        x, y_true, y_pred = table.T
        rmse = float(np.sqrt(np.mean((y_pred - y_true) ** 2)))
        band = float(np.ptp(y_true))
        if not rmse <= 0.01 * band:
            problems.append(f"anfis: RMSE {rmse:.3f} above 1% of the band {band:.3f}")
        point = optimum.decisions.as_array()
        for i in self.check_rng.choice(len(x), size=5, replace=False):
            point[0] = x[i]
            twin = _batch_value(params, point)
            if _rel(y_true[i], twin) > 1e-9:
                problems.append(f"anfis: target at T0={x[i]} is {y_true[i]!r}, "
                                f"twin {twin!r}")
        return problems


WORKLOADS = {"optimize": Optimize, "sweep": Sweep, "inspect": Inspect}
