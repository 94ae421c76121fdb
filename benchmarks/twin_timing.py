"""Time the NumPy twin per call on two source trees, in alternated fresh
interpreters, and print each side's spread over N rounds.

    python3 benchmarks/twin_timing.py SRC_A SRC_B [--rounds N]

SRC_A and SRC_B are directories that hold the ``greenchain`` package
(``src`` in a checkout).  Each round starts one interpreter per tree, A
first in odd rounds and B first in even ones; an interpreter imports
greenchain from its tree and nowhere else, and times every case once.
A case's time in one interpreter is the least, over five repeats, of
the mean time of a call in a loop of calls that lasts about 20 ms
(0.5 s for ``calibrate`` and ``anfis``).

Cases:

- ``twin/<policy>/<sets>/<rows>``: one call of a `make_batch_objective`
  objective (its layout prepared once, as the optimizers use it) for
  policies tax, cap_trade and limited, at 1, 50, 250 and 8,192 rows;
  ``1set`` is one parameter set, ``5sets`` five sets that differ in C_p
  (one per-row slot, as a sweep's levels do), at the row count rounded
  down to a multiple of five (no 1-row case);
- ``model/<policy>``: one ``evaluate_policy`` call, the model layer's
  one-row twin call, which prepares its operands on every call;
- ``calibrate``: one ``calibrate_missing_defaults`` on its built-in target;
- ``anfis``: one 100-epoch ``train_hybrid`` from a fresh five-rule
  ``grid_partition(0.05, 1.5)`` on ``generate_dataset``'s 61-point T0
  sweep over [0.05, 1.5] at the reference optimum.

The decision rows are drawn with a fixed seed around the reference optimum,
all admissible; the parameters are the table defaults with the
reference triple.

Every interpreter's time is kept.  Per case and side the table gives the
best, the lower quartile, the median and the upper quartile over the
rounds, in microseconds; then B/A, the ratio of the medians, and how many
rounds B beat A (each round's B time against the same round's A time).
One interpreter's time of a case varies by several percent, so read a
small difference from the quartiles and the round count, not the best.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import subprocess
import sys
import time

import numpy as np

POLICIES = ("tax", "cap_trade", "limited")
ROWS = (1, 50, 250, 8192)
LOOP_SECONDS = 0.02
REPEATS = 5


def _best_us(call, budget=LOOP_SECONDS) -> float:
    """Least mean time of one call over REPEATS loops of about `budget` s."""
    call()
    start = time.perf_counter()
    call()
    number = max(1, int(budget / max(time.perf_counter() - start, 1e-7)))
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - start) / number)
    return 1e6 * best


def measure(src: str) -> dict:
    """Every case's time (us) with greenchain imported from `src`."""
    sys.path.insert(0, os.path.abspath(src))
    from greenchain import (DecisionVector, ModelParameters, evaluate_policy,
                            make_batch_objective)
    from greenchain.anfis import generate_dataset, grid_partition, train_hybrid
    from greenchain.sensitivity import calibrate_missing_defaults

    params = ModelParameters(v1=0.0386, v2=0.0549, C_Tax=2.108, C_CT=2.108)
    sets = [params.replace(C_p=params.C_p * (1.0 + level))
            for level in (-0.4, -0.2, 0.0, 0.2, 0.4)]
    rng = np.random.default_rng(2026)
    optimum = np.array([0.6626, 167.8651, 93.6741, 7.7565, 292.28])
    X = optimum * rng.uniform(0.9, 1.02, (max(ROWS), 5))
    times = {}
    for policy in POLICIES:
        alone = make_batch_objective(params, policy)
        levels = make_batch_objective(sets, policy)
        for n in ROWS:
            if not alone(X[:n])[2].all():
                raise RuntimeError("a drawn decision row is not admissible")
            times[f"twin/{policy}/1set/{n}"] = _best_us(lambda: alone(X[:n]))
            if n >= len(sets):
                m = n - n % len(sets)
                times[f"twin/{policy}/5sets/{m}"] = _best_us(lambda: levels(X[:m]))
        decisions = DecisionVector.from_array(X[0])
        times[f"model/{policy}"] = _best_us(
            lambda: evaluate_policy(params, decisions, policy))
    times["calibrate"] = _best_us(calibrate_missing_defaults, budget=0.5)
    x, y, _ = generate_dataset(params, DecisionVector.from_array(optimum), "T0",
                               61, (0.05, 1.5))
    times["anfis"] = _best_us(
        lambda: train_hybrid(grid_partition(0.05, 1.5, 5), x, y, epochs=100),
        budget=0.5)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src_a", nargs="?", help="source tree A (holds greenchain/)")
    parser.add_argument("src_b", nargs="?", help="source tree B (holds greenchain/)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="interpreters per tree (default 5)")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:     # one interpreter's times, as JSON on stdout
        json.dump(measure(args.worker), sys.stdout)
        return 0
    if args.src_b is None or args.rounds < 1:
        parser.error("give SRC_A and SRC_B, and --rounds of at least 1")
    times = {"A": {}, "B": {}}     # side -> case -> one time per round
    for r in range(args.rounds):
        for side in ("AB" if r % 2 == 0 else "BA"):
            src = args.src_a if side == "A" else args.src_b
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--worker", src],
                check=True, capture_output=True, text=True).stdout
            for case, us in json.loads(out).items():
                times[side].setdefault(case, []).append(us)
    columns = [f"{side} {stat}" for side in "AB"
               for stat in ("best", "q1", "median", "q3")]
    print(f"{'case':28s}" + "".join(f" {c:>10s}" for c in columns)
          + f" {'B/A':>6s} {'B won':>6s}")
    for case, a in times["A"].items():
        a, b = np.array(a), np.array(times["B"][case])
        cells = [v for side in (a, b)
                 for v in (side.min(), *np.percentile(side, [25, 50, 75]))]
        won = f"{np.count_nonzero(b < a)}/{len(a)}"
        print(f"{case:28s}" + "".join(f" {v:10.1f}" for v in cells)
              + f" {np.median(b) / np.median(a):6.3f} {won:>6s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
