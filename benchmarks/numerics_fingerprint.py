"""Record greenchain's numerical results bit for bit, or compare two records.

A refactor that claims "the same numbers" runs this on the source tree
before and after the change and compares the two files:

    python3 benchmarks/numerics_fingerprint.py SRC_DIR OUT.json
    python3 benchmarks/numerics_fingerprint.py --compare BEFORE.json AFTER.json

SRC_DIR is the directory that holds the ``greenchain`` package (``src`` in
a checkout); the script imports greenchain from there and nowhere else.
Floats are stored as hex strings, so two records are equal only when every
bit is.  Compare mode prints each entry that differs, with how many of its
numbers differ (numbers inside text such as stdout and CSV files count)
and their largest relative difference, and exits 1 if any entry differs,
0 otherwise.

The script calls greenchain's public functions, so it follows their
signatures.  Across a change to one of them, record the parent with the
parent's copy of this script on the parent tree, and the change with this
one; the entry names and the calls behind them stay the same, so the two
records compare entry by entry.

Entries (one process, about 20 s on two cores):

- ``run``: de1/de2/pso x tax/cap_trade/limited x seeds 0-4;
- ``multi_seed_run`` with five seeds for the same nine pairs;
- runs whose penalty coefficient doubles (``limited`` with no cap, three
  runs per algorithm with different doubling schedules, each on its own:
  the runs of one lockstep call share their schedule);
- ``doubling/saturated``: one run per algorithm whose coefficient doubles
  every generation until it stops at the largest float, on an objective
  whose rows turn feasible at call 1,011 (the best fitness must be the
  best value, and the history finite);
- one lockstep call per algorithm that mixes runs which become feasible
  with a run that never does, under one shared doubling schedule;
- runs on an objective that rejects every row (no incumbent: ``x_best``
  falls back to the final population's first row, the history is -inf);
- the NumPy batch twin itself on a seeded batch of finite rows: ordinary
  rows, rows below THETA_FLOOR, refused rows and backlog rows, under each
  policy with one parameter vector and with a per-row matrix (optimizer
  runs may never reach the zero-deterioration limits);
- ``make_batch_objective`` over five parameter sets that differ in one
  slot, as a sweep's levels do, on the same batch under each policy;
- ``make_batch_objective`` at ``kappa1 = kappa2 = 2.0`` under each policy:
  one set alone, and the same set first among sets that differ from it in
  ``kappa1`` or ``kappa2`` (its block must equal the one-set rows);
- ``run_sweep`` for all 14 parameters of the direction check;
- one ``direction_report``;
- the ``calibrate_missing_defaults`` triple;
- ``train_hybrid`` (history, model JSON, predictions) at four operating
  points drawn as perfbench's ``inspect`` draws them: constants around
  the reference triple, decisions at their DE-1 tax optimum, 61 points of
  ``T0`` over [0.05, 1.5];
- the ``evaluate``, ``optimize --seeds 3``, ``sensitivity``, ``anfis`` and
  ``surface`` CLI outputs (stdout and every file written, line ends
  included), with ``meta`` removed from JSON.

Wall times are left out everywhere.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import dataclasses
import io
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

#: Constants the README gives for the reference operating point.
REFERENCE = {"v1": 0.0386, "v2": 0.0549, "C_Tax": 2.108, "C_CT": 2.108}
DECISIONS = {"T0": 0.6626, "xi1": 167.8651, "xi2": 93.6741,
             "G": 7.7565, "W_r": 292.28}
ALGORITHMS = ("de1", "de2", "pso")
POLICIES = ("tax", "cap_trade", "limited")


def hexify(value):
    """JSON-ready copy of `value` with every float as its hex string."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return hexify(value.tolist())
    if isinstance(value, dict):
        return {str(k): hexify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexify(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: hexify(getattr(value, f.name))
                for f in dataclasses.fields(value) if f.name != "wall_time_s"}
    return value


def _optimizer_entries(gc) -> dict:
    from greenchain.optimize import (OptimizerConfig, SearchSpace,
                                     default_search_space, multi_seed_run, run,
                                     run_many)

    params = gc.ModelParameters.from_dict(REFERENCE)
    space = default_search_space(params)
    entries = {}
    for policy in POLICIES:
        objective = gc.make_batch_objective(params, policy)
        for algo in ALGORITHMS:
            for seed in range(5):
                result = run(space, OptimizerConfig(algorithm=algo, seed=seed),
                             objective)
                entries[f"run/{algo}/{policy}/seed{seed}"] = result
            entries[f"multi_seed_run/{algo}/{policy}"] = multi_seed_run(
                space, OptimizerConfig(algorithm=algo, seed=100), objective, 5)

    # With no cap and little abatement most of the box is infeasible, so the
    # incumbent stays infeasible long enough for the coefficient to double:
    # at l3 = 1.5 for the whole run, at l3 = 1.8 until DE finds the
    # feasible corner.
    for l3 in (1.5, 1.8):
        tight = params.replace(U2=0.0, l3=l3)
        objective = gc.make_batch_objective(tight, "limited")
        for algo in ALGORITHMS:
            entries[f"doubling/{algo}/l3={l3}"] = [
                run(default_search_space(tight),
                    OptimizerConfig(algorithm=algo, seed=seed, max_iter=60,
                                    penalty_coefficient=1e-3,
                                    penalty_double_every=every), objective)
                for seed, every in ((1, 3), (2, 5), (3, 7))]

    def late_feasible():
        calls = []

        def objective(X):
            calls.append(len(X))
            n = len(X)
            return (-np.sum(X ** 2, axis=1),
                    np.full(n, 0.0 if len(calls) > 1010 else 1.0), np.ones(n, dtype=bool))
        return objective

    # From 1e6, about 1,003 doublings reach the largest float.
    entries["doubling/saturated"] = [
        run(SearchSpace(-np.ones(2), np.ones(2)),
            OptimizerConfig(algorithm=algo, seed=1, pop_size=5, max_iter=1100,
                            penalty_double_every=1), late_feasible())
        for algo in ALGORITHMS]

    # Runs 0 and 2 become feasible, run 1 (as above at l3 = 1.5) never does.
    mixed = [params, params.replace(U2=0.0, l3=1.5), params]
    objective = gc.make_batch_objective(mixed, "limited")
    for algo in ALGORITHMS:
        config = OptimizerConfig(algorithm=algo, seed=4, max_iter=60,
                                 penalty_coefficient=1e-3, penalty_double_every=3)
        entries[f"mixed_feasibility/{algo}"] = run_many(
            [default_search_space(p) for p in mixed], config, (4, 5, 6), objective)

    def reject_all(X):
        n = len(X)
        return np.full(n, np.nan), np.full(n, np.nan), np.zeros(n, dtype=bool)

    for algo in ALGORITHMS:
        entries[f"reject_all/{algo}"] = run(
            space, OptimizerConfig(algorithm=algo, seed=9, max_iter=20), reject_all)
    return entries


def _twin_entries(gc) -> dict:
    from greenchain import kernels
    from greenchain.policy import POLICY_IDS

    params = gc.ModelParameters.from_dict(REFERENCE)
    rng = np.random.default_rng(20)
    n = 240
    X = np.column_stack([rng.uniform(0.05, 2.0, n), rng.uniform(0.0, 500.0, n),
                         rng.uniform(0.0, 500.0, n), rng.uniform(0.01, 50.0, n),
                         rng.uniform(80.0, 300.0, n)])
    kind = np.arange(n) % 8
    X[kind == 1, 1] = rng.uniform(600.0, 2000.0, n // 8)    # theta_m below the floor
    X[kind == 2, 0] = -0.5                                   # T0 <= 0
    X[kind == 3, 2] = -1.0                                   # negative xi2
    X[kind == 4, 3] = -0.0                                   # G = -0.0 is admitted
    X[kind == 5, 4] = 330.0                                  # price past a/b
    X[kind == 6, 0] = 30.0                                   # backlog never clears
    X[kind == 6, 4] = rng.uniform(80.0, 100.0, n // 8)
    vector = params.replace(v1=0.1).as_array()               # raised v1
    per_row = vector[:, None] * rng.uniform(0.97, 1.03, (kernels.N_PARAMS, n))
    # Five levels of P_r, 48 rows each.
    sweep_sets = [params.replace(v1=0.1, P_r=2500.0 * level)
                  for level in (0.6, 0.8, 1.0, 1.2, 1.4)]
    # Exponents at 2.0, where NumPy's ** squares a scalar exponent's base;
    # with no cap and a large l4 the violation turns on G ** kappa2.
    square = params.replace(v1=0.1, kappa1=2.0, kappa2=2.0, U2=0.0, l4=300.0)
    kappa_sets = [square, square.replace(kappa1=1.45), square.replace(kappa2=0.8)]
    entries = {}
    for policy, pid in POLICY_IDS.items():
        for layout, p in (("vector", vector), ("per_row", per_row)):
            entries[f"twin/{policy}/{layout}"] = kernels.evaluate_policy_batch_numpy(
                pid, X, p)
        entries[f"objective/{policy}/sweep_sets"] = gc.make_batch_objective(
            sweep_sets, policy)(X)
        entries[f"objective/{policy}/kappa2.0/one_set"] = gc.make_batch_objective(
            square, policy)(X)
        entries[f"objective/{policy}/kappa2.0/mixed_sets"] = gc.make_batch_objective(
            kappa_sets, policy)(np.concatenate([X] * len(kappa_sets)))
    return entries


def _sensitivity_entries(gc) -> dict:
    from greenchain.optimize import OptimizerConfig
    from greenchain.sensitivity import (EXPECTED_DECREASING, EXPECTED_INCREASING,
                                        SweepSpec, calibrate_missing_defaults,
                                        direction_report, run_sweep)

    params = gc.ModelParameters.from_dict(REFERENCE)
    entries = {}
    for name in EXPECTED_DECREASING + EXPECTED_INCREASING:
        spec = SweepSpec(parameter=name,
                         optimizer=OptimizerConfig(algorithm="pso", seed=11))
        entries[f"sweep/{name}"] = run_sweep(spec, params)
    entries["direction_report"] = direction_report(
        params, OptimizerConfig(algorithm="pso", seed=3, max_iter=100))
    fit = calibrate_missing_defaults()
    entries["calibration"] = [fit.v1, fit.v2, fit.C_Tax]
    return entries


def _anfis_entries(gc) -> dict:
    from greenchain.anfis import generate_dataset, grid_partition, train_hybrid
    from greenchain.optimize import OptimizerConfig, default_search_space, run

    rng = np.random.default_rng(401)
    entries = {}
    for k in range(4):
        v1, v2, c_tax = (REFERENCE[name] * rng.uniform(0.8, 1.25)
                         for name in ("v1", "v2", "C_Tax"))
        params = gc.ModelParameters.from_dict(
            {"v1": v1, "v2": v2, "C_Tax": c_tax, "C_CT": c_tax})
        optimum = max((run(default_search_space(params),
                           OptimizerConfig(algorithm="de1", seed=int(seed)),
                           gc.make_batch_objective(params, "tax"))
                       for seed in rng.choice(2 ** 31, size=2, replace=False)),
                      key=lambda result: result.best_value)
        x, y, _ = generate_dataset(params, optimum.decisions, "T0", 61,
                                   (0.05, 1.5))
        model, history = train_hybrid(
            grid_partition(float(x.min()), float(x.max()), 5, input_name="T0"),
            x, y)
        entries[f"anfis/point{k}"] = {"history": history,
                                      "model": json.loads(model.to_json()),
                                      "predictions": model.forward(x)}
    return entries


def _strip_meta(text: str):
    doc = json.loads(text)
    if isinstance(doc, dict):
        doc.pop("meta", None)
    return doc


def _cli_entries(gc) -> dict:
    from greenchain.cli import main

    commands = {
        "evaluate": ["evaluate"],
        "optimize_de1": ["optimize", "--algo", "de1", "--seeds", "3"],
        "optimize_pso": ["optimize", "--algo", "pso", "--seeds", "3"],
        "sensitivity": ["sensitivity", "--param", "C_p"],
        "anfis": ["anfis", "--range", "0.05", "1.5"],
        "surface": ["surface", "--vars", "T0", "W_r", "--range1", "0.05", "12",
                    "--range2", "80", "320", "--n1", "40", "--n2", "40"],
    }
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({"parameters": REFERENCE, "policy": "tax",
                                      "seed": 7, "decisions": DECISIONS}))
        for name, argv in commands.items():
            out = Path(tmp) / name
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(["--config", str(config), "--out", str(out)] + argv)
            files = {}
            for path in sorted(out.iterdir()):
                text = path.read_bytes().decode()
                files[path.name] = (_strip_meta(text) if path.suffix == ".json"
                                    else text)
            entries[f"cli/{name}"] = {
                "exit": code,
                "stdout": stdout.getvalue().replace(str(out), "<out>"),
                "files": files,
            }
    return entries


def record(src_dir: Path) -> dict:
    sys.path.insert(0, str(src_dir))
    import greenchain as gc

    origin = Path(gc.__file__).resolve()
    if src_dir not in origin.parents:
        raise SystemExit(f"greenchain was imported from {origin}, not {src_dir}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        entries = {**_optimizer_entries(gc), **_twin_entries(gc),
                   **_sensitivity_entries(gc), **_anfis_entries(gc),
                   **_cli_entries(gc)}
    return {name: hexify(value) for name, value in entries.items()}


#: A number inside text (stdout, CSV), read as a float by compare mode.
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def _leaves(value):
    """The leaves of a record entry in order: numbers as floats (hex
    strings, ints, and the numbers inside text), other text as strings."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield key
            yield from _leaves(value[key])
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    elif isinstance(value, str) and (value.startswith(("0x", "-0x"))
                                     or value in ("inf", "-inf", "nan")):
        yield float.fromhex(value)
    elif isinstance(value, str):
        last = 0
        for match in NUMBER.finditer(value):
            yield value[last:match.start()]
            yield float(match.group())
            last = match.end()
        yield value[last:]
    elif isinstance(value, bool) or value is None:
        yield value
    else:
        yield float(value)


def describe(before, after) -> str:
    """How two versions of one entry differ: the count of numbers that
    differ and their largest relative difference, when the rest is equal."""
    a, b = list(_leaves(before)), list(_leaves(after))
    if len(a) != len(b) or any(type(x) is not type(y) or (
            not isinstance(x, float) and x != y) for x, y in zip(a, b)):
        return "structure differs"
    pairs = [(x, y) for x, y in zip(a, b) if isinstance(x, float)
             and x.hex() != y.hex() and not (x != x and y != y)]
    rel = max((abs(x - y) / max(abs(x), abs(y)) if x - y == x - y else math.inf
               for x, y in pairs), default=0.0)
    count = sum(isinstance(x, float) for x in a)
    return (f"{len(pairs)} of {count} numbers differ, largest relative "
            f"difference {rel:.3g}")


def compare(before: dict, after: dict) -> int:
    differing = sorted(name for name in before.keys() | after.keys()
                       if before.get(name) != after.get(name))
    for name in differing:
        detail = (describe(before[name], after[name])
                  if name in before and name in after
                  else "only in " + ("the first" if name in before else "the second"))
        print(f"differs: {name}: {detail}")
    print(f"{len(before.keys() | after.keys()) - len(differing)} of "
          f"{len(before.keys() | after.keys())} entries identical")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", action="store_true",
                        help="compare two records instead of writing one")
    parser.add_argument("first", help="SRC_DIR, or the first record with --compare")
    parser.add_argument("second", help="OUT.json, or the second record with --compare")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(json.loads(Path(args.first).read_text()),
                       json.loads(Path(args.second).read_text()))
    entries = record(Path(args.first).resolve())
    Path(args.second).write_text(json.dumps(entries, indent=1, sort_keys=True))
    print(f"wrote {len(entries)} entries to {args.second}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
