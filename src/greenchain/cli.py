"""Command-line front end: evaluate, optimize, sweep, surrogate, surface.

One JSON configuration file feeds every subcommand (shared sections:
``parameters``/``parameters_file``, and ``policy``, ``seed``, ``out_dir``,
``decisions``, ``optimizer``, which every subcommand checks; at most one
exclusive section, holding only its subcommand's keys).  An unknown key
exits 2.  A flag is its config key given on the command line and replaces
it.  The default config path comes from the ``GREENCHAIN_CONFIG``
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
from .model import (DECISION_NAMES, DecisionVector, evaluate_row,
                    refusing_overflow, term_views)
from .optimize import (ALGORITHMS, OptimizerConfig, default_search_space,
                       multi_seed_run, multi_seed_stats, require_allocatable)
from .params import ModelParameters, to_count, to_real
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
# The `optimizer` options; the seed is top-level only.
OPTIMIZER_KEYS = tuple(k for k in OptimizerConfig.__dataclass_fields__ if k != "seed")


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


def _given(args, doc: dict | None, keys) -> dict:
    """`doc` (None reads as {}) with each of `keys` given as a flag laid
    over it: a flag's dest is its key, and a given flag is taken as given."""
    flags = vars(args)
    return {**(doc or {}), **{k: flags[k] for k in keys if flags.get(k) is not None}}


def _range(value, name: str) -> tuple[float, float]:
    """A [low, high] pair of finite real numbers with low < high."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise UsageError(f"{name} needs two numbers [low, high], got {value!r}")
    low, high = (to_real(v, name) for v in value)
    if not low < high:
        raise UsageError(f"{name} needs low < high, got {value!r}")
    return low, high


def _optimizer_config(config) -> OptimizerConfig:
    """The checked `optimizer` options, with the seed every run needs."""
    if config["optimizer"].seed is None:
        raise UsageError("a seed is required (flag --seed or config 'seed')")
    return config["optimizer"]


def _check_shared_keys(args, config: dict) -> None:
    """Check and normalise the shared keys in place, for every command:
    `optimizer` becomes an `OptimizerConfig` with the seed, `out_dir` a
    Path or None, `decisions` the merged values as floats (maybe not all)."""
    config["policy"] = "tax" if config.get("policy") is None else config["policy"]
    if config["policy"] not in POLICY_IDS:
        raise UsageError(f"unknown policy {config['policy']!r}")
    seed = config.get("seed")
    options = _given(args, config.get("optimizer"), OPTIMIZER_KEYS)
    unknown = sorted(set(options) - set(OPTIMIZER_KEYS))
    if unknown:
        raise UsageError("unknown optimizer options: " + ", ".join(unknown))
    config["optimizer"] = OptimizerConfig(
        **options, seed=None if seed is None else to_count(seed, "seed"))
    config["optimizer"].validate()
    config["out_dir"] = Path(config["out_dir"]) if config.get("out_dir") else None
    override = config[args.command].get("decisions")
    if override is not None and not isinstance(override, dict):
        raise UsageError("section 'decisions' must hold a JSON object")
    doc = _given(args, {**(config.get("decisions") or {}), **(override or {})},
                 DECISION_NAMES)
    unknown = sorted(set(doc) - set(DECISION_NAMES))
    if unknown:
        raise UsageError("unknown decision keys: " + ", ".join(unknown))
    config["decisions"] = {k: to_real(v, k) for k, v in doc.items()}


def cmd_evaluate(args, config) -> int:
    policy = config["policy"]
    params = _load_parameters(config, policy)
    decisions = DecisionVector.from_dict(config["decisions"])
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
    _write_json(config["out_dir"], "evaluate.json", doc)
    return EXIT_OK


def cmd_optimize(args, config) -> int:
    policy = config["policy"]
    params = _load_parameters(config, policy)
    cfg = _optimizer_config(config)
    objective = make_batch_objective(params, policy)
    space = default_search_space(params)
    n_seeds = args.seeds if args.seeds is not None else 1
    results = multi_seed_run(space, cfg, objective, n_seeds)
    if not all(np.isfinite(result.best_value) for result in results):
        raise ValueError("the model rejects every candidate the optimizer tried; "
                         "there is no best point to report")

    out = config["out_dir"]
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
    policy = config["policy"]
    params = _load_parameters(config, policy)
    section = config["sensitivity"]
    parameter = section.get("parameter")
    if not parameter:
        raise UsageError("sensitivity needs a parameter (--param or config)")
    levels = section.get("levels", list(DEFAULT_LEVELS))
    if not isinstance(levels, list):
        raise UsageError("sensitivity levels must be a list of numbers, "
                         f"got {levels!r}")
    levels = [to_real(v, "sensitivity levels") for v in levels]
    cfg = _optimizer_config(config)
    reoptimize = section.get("reoptimize", True)
    if type(reoptimize) is not bool:
        raise UsageError("sensitivity reoptimize must be true or false, "
                         f"got {reoptimize!r}")
    decisions = None if reoptimize else DecisionVector.from_dict(config["decisions"])
    spec = SweepSpec(parameter=parameter, levels=tuple(levels), policy=policy,
                     optimizer=cfg, decisions=decisions)
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
    _write_csv(config["out_dir"], f"sweep_{parameter}.csv",
               SWEEP_CSV_COLUMNS, sweep_table(parameter, rows))
    return EXIT_OK


def cmd_anfis(args, config) -> int:
    policy = config["policy"]
    params = _load_parameters(config, policy)
    section = config["anfis"]
    variable = section.get("variable", "T0")
    n_points = to_count(section.get("n_points", 61), "anfis n_points")
    require_allocatable("anfis n_points", n_points)
    bounds = _range(section.get("range"), "anfis range")
    epochs = to_count(section.get("epochs", 100), "anfis epochs")
    if epochs < 1:
        raise UsageError("anfis needs at least one training epoch")
    # The RMSE history holds one float per epoch.
    require_allocatable("anfis epochs", epochs)
    lr = to_real(section.get("learning_rate", 0.01), "anfis learning_rate")
    decisions = DecisionVector.from_dict(config["decisions"])

    x, y, skipped = generate_dataset(params, decisions, variable,
                                     n_points, bounds, policy)
    rules = 5
    if x.size < 2 * rules:
        raise UsageError(
            f"sweep range produced {x.size} admissible points, fewer than the "
            f"{2 * rules} linear consequent parameters of {rules} rules")
    model = grid_partition(float(x.min()), float(x.max()), rules,
                           input_name=variable)
    model, history = train_hybrid(model, x, y, epochs=epochs, learning_rate=lr)
    y_pred = model.forward(x)
    rng = float(y.max() - y.min())
    print(f"anfis {variable}: {x.size} points (skipped {skipped}), "
          f"final RMSE {history[-1]:.4f} ({100 * history[-1] / rng:.3f}% of range)")
    print(f"architecture: {model.architecture()}")
    out = config["out_dir"]
    if out:
        _atomic_write(out / f"anfis_{variable}.json", model.to_json())
    _write_csv(out, f"anfis_{variable}_predictions.csv", ["x", "y_true", "y_pred"],
               zip(x, y, y_pred))
    _write_csv(out, f"anfis_{variable}_rmse.csv", ["epoch", "rmse"],
               enumerate(history))
    return EXIT_OK


def cmd_surface(args, config) -> int:
    policy = config["policy"]
    params = _load_parameters(config, policy)
    section = config["surface"]
    variables = section.get("variables")
    if not isinstance(variables, list) or len(variables) != 2:
        raise UsageError("surface needs exactly two decision variable names")
    v1, v2 = variables
    for v in (v1, v2):
        if v not in DECISION_NAMES:
            raise UsageError(f"unknown decision variable {v!r}")
    if v1 == v2:
        raise UsageError(f"surface needs two different variables, got {v1!r} twice")
    range1 = _range(section.get("range1"), "surface range1")
    range2 = _range(section.get("range2"), "surface range2")
    n1 = to_count(section.get("n1", 25), "surface n1")
    n2 = to_count(section.get("n2", 25), "surface n2")
    if n1 < 1 or n2 < 1:
        raise UsageError("surface needs at least one grid point per variable")
    require_allocatable("surface n1", n1)
    require_allocatable("surface n2", n2)
    decisions = DecisionVector.from_dict(config["decisions"])

    xs = np.linspace(range1[0], range1[1], n1)
    ys = np.linspace(range2[0], range2[1], n2)
    objective = make_batch_objective(params, policy)
    i1, i2 = DECISION_NAMES.index(v1), DECISION_NAMES.index(v2)
    block_rows = max(1, SURFACE_BLOCK_CELLS // n2)
    out = config["out_dir"]
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
    section = config["calibrate"]
    target = DEFAULT_CALIBRATION_TARGET
    if "target" in section:
        doc = section["target"]
        if not isinstance(doc, dict) or not isinstance(doc.get("decisions"), dict):
            raise UsageError("calibrate target must be a JSON object with a "
                             "'decisions' object")
        unknown = sorted(set(doc) - set(CalibrationTarget.__dataclass_fields__))
        if unknown:
            raise UsageError("unknown calibrate target keys: " + ", ".join(unknown))
        target = CalibrationTarget(
            decisions=DecisionVector.from_dict(doc["decisions"]),
            **{k: to_real(doc.get(k), f"calibrate target {k}")
               for k in ("Z_m", "Z_r", "phi_T")})
    result = calibrate_missing_defaults(target, _parameter_document(config))
    report = result.report()
    if args.check_directions:
        report["sign_checks"] = direction_report(result.params,
                                                 _optimizer_config(config))
    print(_json(report))
    _write_json(config["out_dir"], "reproduction_report.json", report)
    return EXIT_OK if result.ok else EXIT_CALIBRATION


def _percents(text: str) -> list[float]:
    """The value of `--levels`: comma-separated percents."""
    return [float(v) for v in text.split(",")]


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
    parser.add_argument("--out", dest="out_dir", help="output directory for artifacts")
    parser.add_argument("--policy", choices=sorted(POLICY_IDS))
    parser.add_argument("--seed", type=int)
    sub = parser.add_subparsers(dest="command", required=True)
    # The optimizer flags of every subcommand that runs the optimizers.
    optimizer_flags = argparse.ArgumentParser(add_help=False)
    optimizer_flags.add_argument("--algo", dest="algorithm", choices=ALGORITHMS)
    optimizer_flags.add_argument("--pop", dest="pop_size", type=int)
    optimizer_flags.add_argument("--iters", dest="max_iter", type=int)

    p_eval = sub.add_parser("evaluate", help="evaluate one decision vector")
    for name in DECISION_NAMES:
        p_eval.add_argument(f"--{name}", type=float, dest=name)

    p_opt = sub.add_parser("optimize", parents=[optimizer_flags],
                           help="run DE or PSO on a policy")
    p_opt.add_argument("--seeds", type=int, help="number of seeds (statistics)")

    p_sens = sub.add_parser("sensitivity", parents=[optimizer_flags],
                            help="one-at-a-time parameter sweep")
    p_sens.add_argument("--param", dest="parameter")
    p_sens.add_argument("--levels", type=_percents,
                        help="comma-separated percents, e.g. --levels=-40,-20,0,20,40")
    p_sens.add_argument("--no-reoptimize", dest="reoptimize",
                        action="store_const", const=False)

    p_anfis = sub.add_parser("anfis", help="train the neuro-fuzzy surrogate")
    p_anfis.add_argument("--variable", choices=DECISION_NAMES)
    p_anfis.add_argument("--points", dest="n_points", type=int)
    p_anfis.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"))
    p_anfis.add_argument("--epochs", type=int)

    p_surf = sub.add_parser("surface", help="profit grid over two decisions")
    p_surf.add_argument("--vars", dest="variables", nargs=2, metavar=("VAR1", "VAR2"))
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
        # The shared flags over the root, the subcommand's over its section,
        # the optimizer's and the decision flags in `_check_shared_keys`.
        config = _given(args, load_config(args.config), ("policy", "seed", "out_dir"))
        config[args.command] = _given(args, config.get(args.command),
                                      SECTION_KEYS.get(args.command, ()))
        _check_shared_keys(args, config)
        with refusing_overflow():
            return COMMANDS[args.command](args, config)
    except ValueError as exc:   # UsageError, ParameterError and DomainError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
