"""Command-line front end: evaluate, optimize, sweep, surrogate, surface.

One JSON configuration file feeds every subcommand (shared sections:
``parameters``/``parameters_file``, ``policy``, ``seed``, ``out_dir``,
``decisions``, ``optimizer``; at most one exclusive section, holding only
its subcommand's keys).  An unknown key exits 2.  Flags override the
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
import functools
import json
import os
import sys
from datetime import datetime, timezone
from itertools import product
from pathlib import Path

import numpy as np

# Not called here (`evaluate` reads its views from one twin call); they stay
# importable from this module for callers that wrap them by attribute.
from . import (base_profits, compute_breakdown,  # noqa: F401
               compute_schedule, evaluate_policy)
from .anfis import generate_dataset, grid_partition, train_hybrid
from .model import (DECISION_NAMES, DecisionVector, DomainError, evaluate_row,
                    refusing_overflow, term_views)
from .optimize import (ALGORITHMS, OptimizerConfig, default_search_space,
                       multi_seed_run, multi_seed_stats, require_allocatable)
from .params import ModelParameters, ParameterError, to_real
from .policy import POLICY_IDS, PolicyObjective, make_batch_objective
from .sensitivity import (CalibrationTarget, DEFAULT_CALIBRATION_TARGET,
                          DEFAULT_LEVELS, SWEEP_CSV_COLUMNS, SweepSpec,
                          calibrate_missing_defaults, direction_report,
                          run_sweep, sweep_table)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_CALIBRATION = 3

CONFIG_ENV = "GREENCHAIN_CONFIG"
# `surface` evaluates and writes whole grid rows, about this many cells at
# a time: memory stays flat in the rows, and a block's temporaries (about
# 650 bytes a cell) leave no large freed heap region for later data to pin.
SURFACE_BLOCK_CELLS = 2048
# The keys of each subcommand's own section; a config holds at most one.
SECTION_KEYS = {
    "evaluate": ("decisions",),
    "sensitivity": ("parameter", "levels", "reoptimize", "decisions"),
    "anfis": ("variable", "n_points", "range", "epochs", "learning_rate",
              "decisions"),
    "surface": ("variables", "range1", "range2", "n1", "n2", "decisions"),
    "calibrate": ("target",),
}
EXCLUSIVE_SECTIONS = tuple(SECTION_KEYS)
# The JSON type each shared key and section must have; null counts as absent.
CONFIG_TYPES = {"parameters": dict, "parameters_file": str, "policy": str,
                "out_dir": str, "optimizer": dict, "decisions": dict,
                **dict.fromkeys(EXCLUSIVE_SECTIONS, dict)}


class UsageError(ValueError):
    pass


def _atomic_write(path: Path, content) -> None:
    """Write `content`, a str or a function of the open file, to a
    temporary sibling and rename it over `path`; if anything raises, the
    sibling is removed and `path` is left as it was.  Line ends are
    written as given."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            if callable(content):
                content(fh)
            else:
                fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_json = functools.partial(json.dumps, indent=2, sort_keys=True)


def _write_json(out: Path | None, name: str, doc: dict, **meta) -> None:
    """Write `doc` to out/name with a `meta` object: the UTC timestamp and
    `meta`.  Nothing without an output directory."""
    if out:
        meta = {"timestamp": datetime.now(timezone.utc).isoformat(), **meta}
        _atomic_write(out / name, _json({"meta": meta, **doc}))


def _write_csv(out: Path | None, name: str, header, rows) -> None:
    """Write `header` and `rows` to out/name by csv.writer, each number that
    is not an int as its float repr.  Nothing without an output directory."""
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, (int, str)) else repr(float(v))
                             for v in row])

    if out:
        _atomic_write(out / name, write)


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
    unknown = sorted(set(doc) - set(CONFIG_TYPES) - {"seed"}) + [
        f"{name}.{key}" for name in present
        for key in sorted(set(doc[name] or {}) - set(SECTION_KEYS[name]))]
    if unknown:
        raise UsageError("unknown config keys: " + ", ".join(unknown))
    return doc


def _parameter_document(config: dict) -> dict | None:
    """The config's parameter document: `parameters`, else the JSON object
    in `parameters_file`, else None."""
    doc, path = config.get("parameters"), config.get("parameters_file")
    if doc is not None or path is None:
        return doc
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read parameters_file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"parameters_file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"parameters_file {path} must hold a JSON object")
    return doc


def _load_parameters(config: dict, policy: str | None) -> ModelParameters:
    doc = _parameter_document(config)
    if doc is None:
        raise UsageError("config must provide 'parameters' or 'parameters_file'")
    return ModelParameters.from_dict(doc, policy=policy)


def _policy(args, config) -> str:
    policy = args.policy or config.get("policy")
    policy = "tax" if policy is None else policy   # only null counts as absent
    if policy not in POLICY_IDS:
        raise UsageError(f"unknown policy {policy!r}")
    return policy


def _count(value, name: str) -> int:
    """`value` itself if it is an integer; floats, bools and null are refused."""
    if type(value) is not int:
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return value


def _range(value, name: str) -> tuple[float, float]:
    """A [low, high] pair of finite real numbers with low < high."""
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
    return DecisionVector.from_dict(doc)


def _optimizer_config(args, config, seed: int) -> OptimizerConfig:
    section = dict(config.get("optimizer") or {})
    if getattr(args, "algo", None):
        section["algorithm"] = args.algo
    if getattr(args, "pop", None) is not None:
        section["pop_size"] = args.pop
    if getattr(args, "iters", None) is not None:
        section["max_iter"] = args.iters
    known = {f.name for f in dataclasses.fields(OptimizerConfig)} - {"seed"}
    unknown = sorted(set(section) - known)
    if unknown:
        raise UsageError("unknown optimizer options: " + ", ".join(unknown))
    return OptimizerConfig(**section, seed=seed)


def cmd_evaluate(args, config) -> int:
    policy = _policy(args, config)
    params = _load_parameters(config, policy)
    decisions = _decisions(config, config.get("evaluate"), args)
    # One twin call serves every section: the term column does not depend
    # on the policy, and a row the policy admits is admitted with none.
    value, violation, phi_m, phi_r, terms = evaluate_row(
        params, decisions, POLICY_IDS[policy])
    schedule, breakdown, profits = term_views(decisions, terms)
    outcome = PolicyObjective(policy, value, phi_m, phi_r, violation, breakdown)
    doc = {
        "policy": policy,
        "decisions": decisions.to_dict(),
        "schedule": schedule.to_dict(),
        "costs_and_emissions": breakdown.to_dict(),
        "base_profits": profits.to_dict(),
        "policy_result": {
            "value": value, "phi_m": phi_m, "phi_r": phi_r,
            "constraint_violation": violation, "feasible": outcome.feasible},
    }
    print(_json(doc))
    _write_json(_out_dir(args, config), "evaluate.json", doc)
    return EXIT_OK


def cmd_optimize(args, config) -> int:
    policy = _policy(args, config)
    params = _load_parameters(config, policy)
    seed = _seed(args, config, required=True)
    cfg = _optimizer_config(args, config, seed)
    objective = make_batch_objective(params, policy)
    space = default_search_space(params)
    n_seeds = args.seeds if args.seeds is not None else 1
    with refusing_overflow():
        results = multi_seed_run(space, cfg, objective, n_seeds)
    if not all(np.isfinite(result.best_value) for result in results):
        raise ValueError("the model rejects every candidate the optimizer tried; "
                         "there is no best point to report")

    out = _out_dir(args, config)
    for result in results:
        print(f"{result.algorithm} policy={policy} seed={result.seed} "
              f"best={result.best_fitness:.6f} feasible={result.feasible} "
              f"evals={result.evaluations}")
        stem = f"{result.algorithm}_{policy}_seed{result.seed}"
        _write_json(out, f"best_{stem}.json", {
            "algorithm": result.algorithm,
            "policy": policy,
            "seed": result.seed,
            "best_decisions": result.decisions.to_dict(),
            "best_value": result.best_value,
            "best_fitness": result.best_fitness,
            "constraint_violation": result.best_violation,
            "feasible": result.feasible,
            "evaluations": result.evaluations,
        }, wall_time_s=result.wall_time_s)
        _write_csv(out, f"history_{stem}.csv",
                   ["iteration", "best_fitness", "feasible"],
                   ((i, fit, int(feas)) for i, (fit, feas) in enumerate(
                       zip(result.history, result.history_feasible))))
    if n_seeds > 1:
        best, mean, std = multi_seed_stats(results)
        print(f"summary: max={best:.6f} mean={mean:.6f} std={std:.6e}")
        _write_json(out, f"summary_{cfg.algorithm}_{policy}.json",
                    {"algorithm": cfg.algorithm, "policy": policy,
                     "seeds": n_seeds, "max": best, "mean": mean, "std": std})
    return EXIT_OK


def cmd_sensitivity(args, config) -> int:
    policy = _policy(args, config)
    params = _load_parameters(config, policy)
    section = dict(config.get("sensitivity") or {})
    parameter = args.param or section.get("parameter")
    if not parameter:
        raise UsageError("sensitivity needs a parameter (--param or config)")
    levels = section.get("levels", list(DEFAULT_LEVELS))
    if args.levels:
        levels = [float(v) for v in args.levels.split(",")]
    if not isinstance(levels, list):
        raise UsageError("sensitivity levels must be a list of numbers, "
                         f"got {levels!r}")
    levels = [to_real(v, "sensitivity levels") for v in levels]
    seed = _seed(args, config, required=True)
    cfg = _optimizer_config(args, config, seed)
    reoptimize = section.get("reoptimize", True)
    if type(reoptimize) is not bool:
        raise UsageError("sensitivity reoptimize must be true or false, "
                         f"got {reoptimize!r}")
    reoptimize = reoptimize and not args.no_reoptimize
    decisions = None if reoptimize else _decisions(config, section)
    spec = SweepSpec(parameter=parameter, levels=tuple(levels), policy=policy,
                     optimizer=cfg, decisions=decisions)
    with refusing_overflow():
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
    _write_csv(_out_dir(args, config), f"sweep_{parameter}.csv",
               SWEEP_CSV_COLUMNS, sweep_table(parameter, rows))
    return EXIT_OK


def cmd_anfis(args, config) -> int:
    policy = _policy(args, config)
    params = _load_parameters(config, policy)
    section = dict(config.get("anfis") or {})
    variable = args.variable or section.get("variable", "T0")
    n_points = args.points if args.points is not None else section.get("n_points", 61)
    n_points = _count(n_points, "anfis n_points")
    require_allocatable("anfis n_points", n_points)
    bounds = _range(args.range or section.get("range"), "anfis range")
    epochs = args.epochs if args.epochs is not None else section.get("epochs", 100)
    if _count(epochs, "anfis epochs") < 1:
        raise UsageError("anfis needs at least one training epoch")
    lr = to_real(section.get("learning_rate", 0.01), "anfis learning_rate")
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
    with refusing_overflow():
        model, history = train_hybrid(model, x, y, epochs=epochs,
                                      learning_rate=lr)
        y_pred = model.forward(x)
        rng = float(y.max() - y.min())
    print(f"anfis {variable}: {x.size} points (skipped {skipped}), "
          f"final RMSE {history[-1]:.4f} ({100 * history[-1] / rng:.3f}% of range)")
    print(f"architecture: {model.architecture()}")
    out = _out_dir(args, config)
    if out:
        _atomic_write(out / f"anfis_{variable}.json", model.to_json())
    _write_csv(out, f"anfis_{variable}_predictions.csv", ["x", "y_true", "y_pred"],
               zip(x, y, y_pred))
    _write_csv(out, f"anfis_{variable}_rmse.csv", ["epoch", "rmse"],
               enumerate(history))
    return EXIT_OK


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
    if v1 == v2:
        raise UsageError(f"surface needs two different variables, got {v1!r} twice")
    range1 = _range(args.range1 or section.get("range1"), "surface range1")
    range2 = _range(args.range2 or section.get("range2"), "surface range2")
    n1 = _count(args.n1 if args.n1 is not None else section.get("n1", 25),
                "surface n1")
    n2 = _count(args.n2 if args.n2 is not None else section.get("n2", 25),
                "surface n2")
    if n1 < 1 or n2 < 1:
        raise UsageError("surface needs at least one grid point per variable")
    require_allocatable("surface n1", n1)
    require_allocatable("surface n2", n2)
    decisions = _decisions(config, section)

    xs = np.linspace(range1[0], range1[1], n1)
    ys = np.linspace(range2[0], range2[1], n2)
    objective = make_batch_objective(params, policy)
    i1, i2 = DECISION_NAMES.index(v1), DECISION_NAMES.index(v2)
    block_rows = max(1, SURFACE_BLOCK_CELLS // n2)
    out = _out_dir(args, config)
    target = (out / f"surface_{v1}_{v2}.csv") if out else None

    def write(fh):
        # The bytes csv.writer would give (repr cells, "\r\n" line ends),
        # each axis value formatted once, a block of grid rows at a time: a
        # row's result does not depend on its batch, nor the bytes on blocks.
        fh.write(f"{v1},{v2},phi_T\r\n")
        middles = [f",{y!r}," for y in ys.tolist()]
        for start in range(0, n1, block_rows):
            block = xs[start:start + block_rows]
            grid = np.tile(decisions.as_array(), (len(block), n2, 1))
            grid[:, :, i1] = block[:, None]
            grid[:, :, i2] = ys
            values, _, valid = objective(grid.reshape(len(block) * n2, -1))
            fh.write("".join([f"{x}{mid}{v!r}\r\n" if ok else f"{x}{mid}\r\n"
                              for (x, mid), v, ok in zip(
                                  product(map(repr, block.tolist()), middles),
                                  values.tolist(), valid.tolist())]))

    if target:
        _atomic_write(target, write)
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
        target = CalibrationTarget(
            decisions=DecisionVector.from_dict(doc["decisions"]),
            **{k: to_real(doc.get(k), f"calibrate target {k}")
               for k in ("Z_m", "Z_r", "phi_T")})
    result = calibrate_missing_defaults(target, _parameter_document(config))
    report = result.report()
    if args.check_directions:
        seed = _seed(args, config, required=True)
        cfg = _optimizer_config(args, config, seed)
        report["sign_checks"] = direction_report(result.params, cfg)
    print(_json(report))
    _write_json(_out_dir(args, config), "reproduction_report.json", report)
    return EXIT_OK if result.ok else EXIT_CALIBRATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and reused: each `parse_args`
    returns a fresh namespace."""
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
    # The optimizer flags of every subcommand that runs the optimizers.
    optimizer_flags = argparse.ArgumentParser(add_help=False)
    optimizer_flags.add_argument("--algo", choices=ALGORITHMS)
    optimizer_flags.add_argument("--pop", type=int)
    optimizer_flags.add_argument("--iters", type=int)

    p_eval = sub.add_parser("evaluate", help="evaluate one decision vector")
    for name in DECISION_NAMES:
        p_eval.add_argument(f"--{name}", type=float, dest=name)

    p_opt = sub.add_parser("optimize", parents=[optimizer_flags],
                           help="run DE or PSO on a policy")
    p_opt.add_argument("--seeds", type=int, help="number of seeds (statistics)")

    p_sens = sub.add_parser("sensitivity", parents=[optimizer_flags],
                            help="one-at-a-time parameter sweep")
    p_sens.add_argument("--param")
    p_sens.add_argument("--levels", help="comma-separated percents, e.g. --levels=-40,-20,0,20,40")
    p_sens.add_argument("--no-reoptimize", action="store_true")

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

    p_cal = sub.add_parser("calibrate", parents=[optimizer_flags],
                           help="fit the unpublished constants")
    p_cal.add_argument("--check-directions", action="store_true",
                       help="also run the sweep sign checks (slow)")
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
