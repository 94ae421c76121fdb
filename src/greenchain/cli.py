"""Command-line front end: evaluate, optimize, sweep, surrogate, surface.

One JSON configuration file feeds every subcommand (shared sections:
``parameters``/``parameters_file``, ``policy``, ``seed``, ``out_dir``,
``optimizer``; one exclusive section per subcommand).  Flags override the
file.  The default config path comes from the ``GREENCHAIN_CONFIG``
environment variable.

Exit codes: 0 success, 1 internal error, 2 invalid input or domain error,
3 calibration failed in reproduction mode.

Outputs are reproducible: for a fixed (config, seed) every emitted byte is
determined except timestamps and wall times, which live in the ``meta``
object of JSON files.  Files are written atomically (temp file + rename).
CSV output always uses '.' as decimal separator.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .anfis import generate_dataset, grid_partition, train_hybrid
from .model import (DECISION_NAMES, DecisionVector, DomainError, base_profits,
                    compute_breakdown, compute_schedule)
from .optimize import (OptimizerConfig, default_search_space, multi_seed_run,
                       multi_seed_stats)
from .params import ModelParameters, ParameterError, to_real
from .policy import POLICY_IDS, evaluate_policy, make_batch_objective
from .sensitivity import (CalibrationTarget, DEFAULT_CALIBRATION_TARGET,
                          SWEEP_CSV_COLUMNS, SweepSpec,
                          calibrate_missing_defaults, direction_report,
                          run_sweep, sweep_table)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_CALIBRATION = 3

CONFIG_ENV = "GREENCHAIN_CONFIG"
EXCLUSIVE_SECTIONS = ("evaluate", "sensitivity", "anfis", "surface", "calibrate")
# The JSON type each shared key and section must have; null counts as absent.
CONFIG_TYPES = {"parameters": dict, "parameters_file": str, "policy": str,
                "out_dir": str, "optimizer": dict, "decisions": dict,
                **dict.fromkeys(EXCLUSIVE_SECTIONS, dict)}


class UsageError(ValueError):
    pass


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _atomic_csv(path: Path, writer_fn) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer_fn(fh)
    os.replace(tmp, path)


def _meta() -> dict:
    return {"timestamp": datetime.now(timezone.utc).isoformat()}


def load_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError("config root must be a JSON object")
    present = [s for s in EXCLUSIVE_SECTIONS if s in doc]
    if len(present) > 1:
        raise UsageError(
            "config may contain at most one subcommand section, found: "
            + ", ".join(present))
    wrong = [f"config key {key!r} must hold "
             + ("a JSON object" if kind is dict else "a string")
             for key, kind in CONFIG_TYPES.items()
             if doc.get(key) is not None and not isinstance(doc[key], kind)]
    if wrong:
        raise UsageError("; ".join(wrong))
    return doc


def _load_parameters(config: dict, policy: str | None) -> ModelParameters:
    doc = config.get("parameters")
    if doc is None and "parameters_file" in config:
        path = config["parameters_file"]
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise UsageError(f"cannot read parameters_file {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(
                f"parameters_file {path} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise UsageError(f"parameters_file {path} must hold a JSON object")
    if doc is None:
        raise UsageError("config must provide 'parameters' or 'parameters_file'")
    return ModelParameters.from_dict(doc, policy=policy)


def _policy(args, config) -> str:
    policy = args.policy or config.get("policy") or "tax"
    if policy not in POLICY_IDS:
        raise UsageError(f"unknown policy {policy!r}")
    return policy


def _count(value, name: str) -> int:
    """`value` itself if it is an integer; floats, bools and null are refused."""
    if type(value) is not int:
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return value


def _range(value, name: str) -> tuple[float, float]:
    """A [low, high] pair of real numbers with low < high."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise UsageError(f"{name} needs two numbers [low, high], got {value!r}")
    low, high = (to_real(v, name) for v in value)
    if not low < high:
        raise UsageError(f"{name} needs low < high, got {value!r}")
    return low, high


def _seed(args, config, required: bool) -> int | None:
    seed = args.seed if args.seed is not None else config.get("seed")
    if seed is None and required:
        raise UsageError("a seed is required (flag --seed or config 'seed')")
    return None if seed is None else _count(seed, "seed")


def _out_dir(args, config) -> Path | None:
    out = args.out or config.get("out_dir")
    return Path(out) if out else None


def _decisions(config: dict, section: dict | None, args=None) -> DecisionVector:
    """Decision vector from top-level config, section override, then flags."""
    doc = dict(config.get("decisions") or {})
    override = (section or {}).get("decisions") or {}
    if not isinstance(override, dict):
        raise UsageError("section 'decisions' must hold a JSON object")
    doc.update(override)
    if args is not None:
        for name in DECISION_NAMES:
            flag = getattr(args, name, None)
            if flag is not None:
                doc[name] = flag
    _require_all_decisions(doc)
    return DecisionVector.from_dict(doc)


def _require_all_decisions(doc: dict) -> None:
    missing = [k for k in DECISION_NAMES if k not in doc]
    if missing:
        raise UsageError("missing decision components: " + ", ".join(missing))


def _optimizer_config(args, config, seed: int) -> OptimizerConfig:
    section = dict(config.get("optimizer") or {})
    if getattr(args, "algo", None):
        section["algorithm"] = args.algo
    if getattr(args, "pop", None) is not None:
        section["pop_size"] = args.pop
    if getattr(args, "iters", None) is not None:
        section["max_iter"] = args.iters
    section["seed"] = seed
    known = {f.name for f in dataclasses.fields(OptimizerConfig)}
    unknown = sorted(set(section) - known)
    if unknown:
        raise UsageError("unknown optimizer options: " + ", ".join(unknown))
    return OptimizerConfig(**section)


def cmd_evaluate(args, config) -> int:
    policy = _policy(args, config)
    params = _load_parameters(config, policy)
    decisions = _decisions(config, config.get("evaluate"), args)
    outcome = evaluate_policy(params, decisions, policy)
    doc = {
        "policy": policy,
        "decisions": decisions.to_dict(),
        "schedule": compute_schedule(params, decisions).to_dict(),
        "costs_and_emissions": compute_breakdown(params, decisions).to_dict(),
        "base_profits": base_profits(params, decisions).to_dict(),
        "policy_result": {
            "value": outcome.value,
            "phi_m": outcome.phi_m,
            "phi_r": outcome.phi_r,
            "constraint_violation": outcome.constraint_violation,
            "feasible": outcome.feasible,
        },
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    out = _out_dir(args, config)
    if out:
        _atomic_write(out / "evaluate.json",
                      json.dumps({"meta": _meta(), **doc}, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_optimize(args, config) -> int:
    policy = _policy(args, config)
    params = _load_parameters(config, policy)
    seed = _seed(args, config, required=True)
    cfg = _optimizer_config(args, config, seed)
    objective = make_batch_objective(params, policy)
    space = default_search_space(params)
    n_seeds = args.seeds if args.seeds is not None else 1
    results = multi_seed_run(space, cfg, objective, n_seeds)

    out = _out_dir(args, config)
    for result in results:
        line = (f"{result.algorithm} policy={policy} seed={result.seed} "
                f"best={result.best_fitness:.6f} feasible={result.feasible} "
                f"evals={result.evaluations}")
        print(line)
        if out:
            doc = {
                "meta": {**_meta(), "wall_time_s": result.wall_time_s},
                "algorithm": result.algorithm,
                "policy": policy,
                "seed": result.seed,
                "best_decisions": result.decisions.to_dict(),
                "best_value": result.best_value,
                "best_fitness": result.best_fitness,
                "constraint_violation": result.best_violation,
                "feasible": result.feasible,
                "evaluations": result.evaluations,
            }
            stem = f"{result.algorithm}_{policy}_seed{result.seed}"
            _atomic_write(out / f"best_{stem}.json",
                          json.dumps(doc, indent=2, sort_keys=True))
            history = [(i, fit, int(feas)) for i, (fit, feas) in enumerate(
                zip(result.history, result.history_feasible))]
            _atomic_csv(out / f"history_{stem}.csv",
                        lambda fh: _write_rows(
                            fh, ["iteration", "best_fitness", "feasible"], history))
    if n_seeds > 1:
        best, mean, std = multi_seed_stats(results)
        print(f"summary: max={best:.6f} mean={mean:.6f} std={std:.6e}")
        if out:
            _atomic_write(out / f"summary_{cfg.algorithm}_{policy}.json",
                          json.dumps({"meta": _meta(), "algorithm": cfg.algorithm,
                                      "policy": policy, "seeds": n_seeds,
                                      "max": best, "mean": mean, "std": std},
                                     indent=2, sort_keys=True))
    return EXIT_OK


def cmd_sensitivity(args, config) -> int:
    policy = _policy(args, config)
    params = _load_parameters(config, policy)
    section = dict(config.get("sensitivity") or {})
    parameter = args.param or section.get("parameter")
    if not parameter:
        raise UsageError("sensitivity needs a parameter (--param or config)")
    levels = section.get("levels", [-40.0, -20.0, 0.0, 20.0, 40.0])
    if args.levels:
        levels = [float(v) for v in args.levels.split(",")]
    seed = _seed(args, config, required=True)
    cfg = _optimizer_config(args, config, seed)
    reoptimize = not args.no_reoptimize and section.get("reoptimize", True)
    decisions = None
    if not reoptimize:
        decisions = _decisions(config, section)
    spec = SweepSpec(parameter=parameter, levels=tuple(levels), policy=policy,
                     optimizer=cfg, reoptimize=reoptimize, decisions=decisions)
    rows = run_sweep(spec, params)
    for row in rows:
        if row.feasible:
            d = row.decisions
            print(f"{parameter} {row.level:+6.1f}%  T0={d.T0:.4f} xi1={d.xi1:.4f} "
                  f"xi2={d.xi2:.4f} W_r={d.W_r:.2f} G={d.G:.4f}  "
                  f"Z_m={row.Z_m:.2f} Z_r={row.Z_r:.2f} phi_T={row.phi_T:.2f} "
                  f"({row.pct_change:+.4f}%)")
        else:
            print(f"{parameter} {row.level:+6.1f}%  infeasible")
    out = _out_dir(args, config)
    if out:
        _atomic_csv(out / f"sweep_{parameter}.csv",
                    lambda fh: _write_rows(fh, SWEEP_CSV_COLUMNS,
                                           sweep_table(parameter, rows)))
    return EXIT_OK


def cmd_anfis(args, config) -> int:
    policy = _policy(args, config)
    params = _load_parameters(config, policy)
    section = dict(config.get("anfis") or {})
    variable = args.variable or section.get("variable", "T0")
    n_points = args.points if args.points is not None else section.get("n_points", 61)
    n_points = _count(n_points, "anfis n_points")
    bounds = _range(args.range or section.get("range"), "anfis range")
    epochs = args.epochs if args.epochs is not None else section.get("epochs", 100)
    if _count(epochs, "anfis epochs") < 1:
        raise UsageError("anfis needs at least one training epoch")
    lr = section.get("learning_rate", 0.01)
    decisions = _decisions(config, section)

    x, y, skipped = generate_dataset(params, decisions, variable,
                                     n_points, bounds, policy)
    rules = 5
    if x.size < 2 * rules:
        raise UsageError(
            f"sweep range produced {x.size} admissible points, fewer than the "
            f"{2 * rules} linear consequent parameters of {rules} rules")
    model = grid_partition(float(x.min()), float(x.max()), rules,
                           input_name=variable)
    model, history = train_hybrid(model, x, y, epochs=epochs,
                                  learning_rate=float(lr))
    y_pred = model.forward(x)
    rng = float(y.max() - y.min())
    print(f"anfis {variable}: {x.size} points (skipped {skipped}), "
          f"final RMSE {history[-1]:.4f} ({100 * history[-1] / rng:.3f}% of range)")
    print(f"architecture: {model.architecture()}")
    out = _out_dir(args, config)
    if out:
        _atomic_write(out / f"anfis_{variable}.json", model.to_json())
        _atomic_csv(out / f"anfis_{variable}_predictions.csv",
                    lambda fh: _write_rows(fh, ["x", "y_true", "y_pred"],
                                           zip(x, y, y_pred)))
        _atomic_csv(out / f"anfis_{variable}_rmse.csv",
                    lambda fh: _write_rows(fh, ["epoch", "rmse"],
                                           enumerate(history)))
    return EXIT_OK


def _write_rows(fh, header, rows):
    writer = csv.writer(fh)
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, (int, str)) else repr(float(v))
                         for v in row])


def cmd_surface(args, config) -> int:
    policy = _policy(args, config)
    params = _load_parameters(config, policy)
    section = dict(config.get("surface") or {})
    variables = args.vars or section.get("variables")
    if not isinstance(variables, list) or len(variables) != 2:
        raise UsageError("surface needs exactly two decision variable names")
    v1, v2 = variables
    for v in (v1, v2):
        if v not in DECISION_NAMES:
            raise UsageError(f"unknown decision variable {v!r}")
    range1 = _range(args.range1 or section.get("range1"), "surface range1")
    range2 = _range(args.range2 or section.get("range2"), "surface range2")
    n1 = _count(args.n1 if args.n1 is not None else section.get("n1", 25),
                "surface n1")
    n2 = _count(args.n2 if args.n2 is not None else section.get("n2", 25),
                "surface n2")
    if n1 < 1 or n2 < 1:
        raise UsageError("surface needs at least one grid point per variable")
    decisions = _decisions(config, section)

    xs = np.linspace(range1[0], range1[1], n1)
    ys = np.linspace(range2[0], range2[1], n2)
    base = decisions.as_array()
    grid = np.tile(base, (xs.size * ys.size, 1))
    XX, YY = np.meshgrid(xs, ys, indexing="ij")
    grid[:, DECISION_NAMES.index(v1)] = XX.ravel()
    grid[:, DECISION_NAMES.index(v2)] = YY.ravel()
    values, _, valid = make_batch_objective(params, policy)(grid)

    out = _out_dir(args, config)
    target = (out / f"surface_{v1}_{v2}.csv") if out else None

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow([v1, v2, "phi_T"])
        for (xv, yv, val, ok) in zip(XX.ravel(), YY.ravel(), values, valid):
            writer.writerow([repr(float(xv)), repr(float(yv)),
                             repr(float(val)) if ok else ""])

    if target:
        _atomic_csv(target, write)
        print(f"wrote {target}")
    else:
        write(sys.stdout)
    return EXIT_OK


def cmd_calibrate(args, config) -> int:
    section = dict(config.get("calibrate") or {})
    target = DEFAULT_CALIBRATION_TARGET
    if "target" in section:
        doc = section["target"]
        if not isinstance(doc, dict) or not isinstance(doc.get("decisions"), dict):
            raise UsageError("calibrate target must be a JSON object with a "
                             "'decisions' object")
        _require_all_decisions(doc["decisions"])
        target = CalibrationTarget(
            decisions=DecisionVector.from_dict(doc["decisions"]),
            **{k: to_real(doc.get(k), f"calibrate target {k}")
               for k in ("Z_m", "Z_r", "phi_T")})
    base_values = config.get("parameters")
    result = calibrate_missing_defaults(target, base_values=base_values)
    report = result.report()
    if args.check_directions:
        seed = _seed(args, config, required=True)
        cfg = _optimizer_config(args, config, seed)
        params = result.params.replace(C_CT=result.C_Tax)
        report["sign_checks"] = direction_report(params, cfg)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    out = _out_dir(args, config)
    if out:
        _atomic_write(out / "reproduction_report.json",
                      json.dumps({"meta": _meta(), **report},
                                 indent=2, sort_keys=True))
    return EXIT_OK if result.ok else EXIT_CALIBRATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenchain",
        description="Green supply chain profit model: evaluation, "
                    "metaheuristic optimization, sensitivity sweeps, "
                    "neuro-fuzzy surrogate.")
    parser.add_argument("--config", help=f"JSON config path (default: ${CONFIG_ENV})")
    parser.add_argument("--out", help="output directory for artifacts")
    parser.add_argument("--policy", choices=sorted(POLICY_IDS))
    parser.add_argument("--seed", type=int)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate one decision vector")
    for name in DECISION_NAMES:
        p_eval.add_argument(f"--{name}", type=float, dest=name)

    p_opt = sub.add_parser("optimize", help="run DE or PSO on a policy")
    p_opt.add_argument("--algo", choices=["de1", "de2", "pso"])
    p_opt.add_argument("--pop", type=int)
    p_opt.add_argument("--iters", type=int)
    p_opt.add_argument("--seeds", type=int, help="number of seeds (statistics)")

    p_sens = sub.add_parser("sensitivity", help="one-at-a-time parameter sweep")
    p_sens.add_argument("--param")
    p_sens.add_argument("--levels", help="comma-separated percents, e.g. --levels=-40,-20,0,20,40")
    p_sens.add_argument("--no-reoptimize", action="store_true")
    p_sens.add_argument("--algo", choices=["de1", "de2", "pso"])
    p_sens.add_argument("--pop", type=int)
    p_sens.add_argument("--iters", type=int)

    p_anfis = sub.add_parser("anfis", help="train the neuro-fuzzy surrogate")
    p_anfis.add_argument("--variable", choices=DECISION_NAMES)
    p_anfis.add_argument("--points", type=int)
    p_anfis.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"))
    p_anfis.add_argument("--epochs", type=int)

    p_surf = sub.add_parser("surface", help="profit grid over two decisions")
    p_surf.add_argument("--vars", nargs=2, metavar=("VAR1", "VAR2"))
    p_surf.add_argument("--range1", type=float, nargs=2, metavar=("LO", "HI"))
    p_surf.add_argument("--range2", type=float, nargs=2, metavar=("LO", "HI"))
    p_surf.add_argument("--n1", type=int)
    p_surf.add_argument("--n2", type=int)

    p_cal = sub.add_parser("calibrate", help="fit the unpublished constants")
    p_cal.add_argument("--check-directions", action="store_true",
                       help="also run the sweep sign checks (slow)")
    p_cal.add_argument("--algo", choices=["de1", "de2", "pso"])
    p_cal.add_argument("--pop", type=int)
    p_cal.add_argument("--iters", type=int)
    return parser


COMMANDS = {
    "evaluate": cmd_evaluate,
    "optimize": cmd_optimize,
    "sensitivity": cmd_sensitivity,
    "anfis": cmd_anfis,
    "surface": cmd_surface,
    "calibrate": cmd_calibrate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        return COMMANDS[args.command](args, config)
    except (UsageError, ParameterError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
