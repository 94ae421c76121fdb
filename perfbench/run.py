"""greenchain's benchmark: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload optimize --seed 1 --seconds 20 --trace 0

Runs from a source checkout (``src/greenchain`` next to this directory).
One process, one client, closed loop: the next task starts when the last
one has returned.  Tasks come in rounds built from ``--seed``; whole rounds
run until the tasks have taken ``--seconds``.  Each task's outputs are
checked between tasks, outside the timing.  BLAS/OpenMP pools are held at
one thread.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
package's public functions in spans and prints the per-layer metrics.
The last line of standard output is one JSON object.  A record of the run
(commit, environment, task times) and, when traced, the span dump are
written under ``.perfbench_out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib.util import find_spec  # noqa: E402
from pathlib import Path  # noqa: E402

from pace import reference_seconds, scale_factors  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from stats import tail  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: Fresh interpreters timed per run; setup_s is their median.
SETUP_PROBES = 5


def measure_setup(n: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until a task could start.

    Returns the probe times and the pace references around them: probe i
    lies between refs[i] and refs[i + 1].
    """
    times, refs = [], [reference_seconds()]
    for _ in range(n):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(SRC)],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        refs.append(reference_seconds())
    return times, refs


def commit() -> str:
    """The checkout's commit, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    from greenchain import kernels

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba_installed": find_spec("numba") is not None,
            "numba_enabled": kernels.NUMBA_ENABLED, "blas_threads": 1}


def run_rounds(workload, seconds: float, tracer):
    """Whole rounds until the tasks have taken `seconds`; checks between.

    The reference computation runs before the first task and after each
    task's check, so task i lies between refs[i] and refs[i + 1].
    """
    raw, completed, refs, problems = [], [], [reference_seconds()], []
    written = 0
    while sum(raw) < seconds:
        values = []
        for task in workload.tasks:
            call = (lambda: workload.run(task))
            start = time.perf_counter()
            try:
                result = tracer.run_task(len(raw), call) if tracer else call()
            except Exception:
                raw.append(time.perf_counter() - start)
                completed.append(False)
                traceback.print_exc()
                values.append(None)
            else:
                raw.append(time.perf_counter() - start)
                completed.append(True)
                issues, value, nbytes = workload.check(task, result)
                problems += issues
                written += nbytes
                values.append(value)
            refs.append(reference_seconds())
        if None not in values:
            problems += workload.check_round(values)
    return raw, completed, refs, written, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "greenchain" / "cli.py").is_file():
        print(f"perfbench: no greenchain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS   # imports greenchain

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup, setup_refs = ([], []) if args.trace else measure_setup(SETUP_PROBES)
    workload = WORKLOADS[args.workload](args.seed, work)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    warm = workload.run(workload.tasks[0])        # untimed, unrecorded
    warm_problems = workload.check(workload.tasks[0], warm)[0]
    raw, completed, refs, written, problems = run_rounds(
        workload, args.seconds, tracer)
    problems = warm_problems + problems
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factors = scale_factors(refs)
    scaled = [t * f for t, f in zip(raw, factors)]
    times = [t for t, ok in zip(scaled, completed) if ok]
    attempted, failed = len(raw), completed.count(False)

    if tracer:
        tracer.uninstall()
        tracer.dump(work / "spans.npz")
        metrics = layer_metrics(tracer, factors, written)
    else:
        setup_scaled = [t * f for t, f in zip(setup, scale_factors(setup_refs))]
        metrics = {
            "tasks_per_s": {"value": len(times) / sum(scaled), "unit": "1/s"},
            "task_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    tail_at = tail(times)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": commit(), "environment": environment(),
        "attempted": attempted, "failed": failed, "busy_s": sum(raw),
        "task_p50_ms": 1e3 * statistics.median(times) if times else None,
        "raw_task_p50_ms": 1e3 * statistics.median(
            [t for t, ok in zip(raw, completed) if ok]) if times else None,
        "task_tail_ms": ({"percentile": tail_at[0], "value": 1e3 * tail_at[1],
                          "samples": len(times)} if tail_at else None),
        "setup_probes_s": setup, "setup_reference_s": setup_refs,
        "task_s": raw, "task_completed": completed, "reference_s": refs,
        "problems": problems[:50], "metrics": metrics,
    }
    (work / "record.json").write_text(json.dumps(summary, indent=1))
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: {attempted} tasks attempted, {failed} failed, "
          f"{summary['busy_s']:.2f} s busy, p50 {summary['task_p50_ms']} ms "
          f"({summary['raw_task_p50_ms']} ms unscaled), tail "
          f"{summary['task_tail_ms'] or f'n/a ({len(times)} tasks < 40)'}, "
          f"commit {summary['commit'][:12]}, {summary['environment']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
