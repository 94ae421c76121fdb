"""Reference figures for single layers, to compare with the ROADMAP baseline.

    python3 perfbench/reference.py

Prints, for the reference parameters: batch-kernel microseconds per row
at 50, 3,500 and 200,000 rows; one scalar ``evaluate_policy`` call; one
PSO run (300 x 50) and one DE run (100 x 50) on the tax policy; and one
``calibrate_missing_defaults``.  Median and best of several repeats.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from greenchain import DecisionVector, ModelParameters, evaluate_policy, \
    make_batch_objective  # noqa: E402
from greenchain.optimize import OptimizerConfig, default_search_space, run  # noqa: E402
from greenchain.sensitivity import calibrate_missing_defaults  # noqa: E402


def timed(fn, repeat):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), min(times)


def main():
    warnings.simplefilter("ignore")
    params = ModelParameters.from_dict(
        {"v1": 0.0386, "v2": 0.0549, "C_Tax": 2.108, "C_CT": 2.108})
    space = default_search_space(params)
    objective = make_batch_objective(params, "tax")
    rng = np.random.default_rng(42)
    for n, repeat in ((50, 2000), (3500, 200), (200_000, 7)):
        X = space.lower + rng.random((n, 5)) * (space.upper - space.lower)
        med, best = timed(lambda: objective(X), repeat)
        print(f"batch kernel, {n} rows: {1e6 * med / n:.3f} us/row median, "
              f"{1e6 * best / n:.3f} best ({repeat} calls)")
    point = DecisionVector(T0=0.6626, xi1=167.8651, xi2=93.6741, G=7.7565,
                           W_r=292.28)
    med, best = timed(lambda: evaluate_policy(params, point, "tax"), 5000)
    print(f"scalar evaluate_policy: {1e6 * med:.1f} us median, {1e6 * best:.1f} best")
    for algo in ("pso", "de1"):
        med, best = timed(lambda: run(space, OptimizerConfig(algorithm=algo, seed=1),
                                      objective), 15)
        print(f"{algo} run: {1e3 * med:.1f} ms median, {1e3 * best:.1f} best")
    med, best = timed(calibrate_missing_defaults, 3)
    print(f"calibrate_missing_defaults: {med:.2f} s median, {best:.2f} best")


if __name__ == "__main__":
    main()
