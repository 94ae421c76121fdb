"""Spans around greenchain's public functions, recorded from outside.

Each span wraps a public name where its callers look it up (a module or
class attribute), so nothing under ``src/`` changes.  Spans are kept in
memory as flat arrays (name, parent, task, start, end) and written out once
at the end; per-layer metrics are computed from them afterwards.  Only
spans opened inside a task are recorded: the benchmark's own checks run
between tasks with the tracer idle.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import Counter

import numpy as np

from stats import self_times

#: Names grouped under the model layer.
MODEL_SPANS = ("model.compute_schedule", "model.compute_breakdown",
               "model.base_profits")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._task = -1
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.task.append(self._task)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """`fn` recording one span per call while a task is open."""
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._task < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                result = on_result(tracer, args, result)
            return result

        return traced

    def run_task(self, task_index: int, fn):
        """Call fn() as the root span of task `task_index`."""
        self._task = task_index
        try:
            return self.wrap("task", fn)()
        finally:
            self._task = -1

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        from greenchain import anfis, cli, kernels, optimize, params, sensitivity

        self.patch(params.ModelParameters, "__init__", "params.build")
        self.patch(params.ModelParameters, "validate", "params.validate")
        self.patch(params.ModelParameters, "as_array", "params.as_array")
        self.patch(kernels, "evaluate_terms", "kernels.evaluate_terms")
        self.patch(kernels, "evaluate_policy_batch_numpy", "kernels.batch",
                   on_result=_count_batch)
        for module in (sensitivity, anfis, cli):
            self.patch(module, "evaluate_policy", "policy.evaluate_policy")
        for module in (sensitivity, cli):
            self.patch(module, "make_batch_objective",
                       "policy.make_batch_objective",
                       on_result=_wrap_objective)
        for module in (optimize, sensitivity):
            self.patch(module, "run", "optimize.run", on_result=_count_run)
        self.patch(sensitivity, "run_sweep", "sensitivity.run_sweep")
        self.patch(cli, "generate_dataset", "anfis.generate_dataset")
        self.patch(cli, "train_hybrid", "anfis.train_hybrid",
                   on_result=_count_epochs)
        for name in MODEL_SPANS:
            attr = name.split(".")[1]
            self.patch(cli, attr, name)
        self.patch(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "task": np.frombuffer(self.task, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def dump(self, path) -> None:
        np.savez_compressed(path, **self.arrays(),
                            counter_names=np.array(sorted(self.counters)),
                            counter_values=np.array(
                                [self.counters[k] for k in sorted(self.counters)],
                                dtype=np.float64))


def _count_batch(tracer, args, result):
    tracer.counters["kernels.batch_rows"] += len(args[1])
    tracer.counters["kernels.batch_valid"] += int(np.count_nonzero(result[2]))
    return result


def _wrap_objective(tracer, args, objective):
    return tracer.wrap("policy.objective", objective)


def _count_run(tracer, args, result):
    history = np.asarray(result.history)
    final = history[-1]
    if math.isfinite(final):
        reached = np.nonzero(history >= final - 1e-4 * abs(final))[0]
        tracer.counters["optimize.gens_to_target"] += int(reached[0])
    return result


def _count_epochs(tracer, args, result):
    tracer.counters["anfis.epochs"] += len(result[1])
    return result


def layer_metrics(tracer: Tracer, task_factors, bytes_written: int) -> dict:
    """Per-layer metrics ({name: {value, unit}}) from the recorded spans.

    `task_factors[i]` scales task i's times to the nominal host pace (see
    pace.py); there is one per task attempted. Layers a workload never
    calls read 0.
    """
    n_tasks = len(task_factors)
    a = tracer.arrays()
    names = a["names"][a["name_id"]]
    factor = np.asarray(task_factors)[a["task"]]
    duration = (a["end"] - a["start"]) * factor
    own = self_times(a["start"], a["end"], a["parent"]) * factor
    parent_name = np.where(a["parent"] >= 0, names[a["parent"]], "")
    c = tracer.counters

    def mask(*wanted):
        return np.isin(names, wanted)

    def calls(*wanted):
        return int(np.count_nonzero(mask(*wanted)))

    def busy(*wanted):
        return float(duration[mask(*wanted)].sum())

    def self_busy(*wanted):
        return float(own[mask(*wanted)].sum())

    def ratio(num, den):
        return num / den if den else 0.0

    builds = calls("params.build")
    batch_calls = calls("kernels.batch")
    rows = c["kernels.batch_rows"]
    scalar = calls("kernels.evaluate_terms")
    evals = calls("policy.evaluate_policy")
    objectives = calls("policy.objective")
    runs = calls("optimize.run")
    run_objective = float(duration[mask("policy.objective")
                                   & (parent_name == "optimize.run")].sum())
    per_task = {
        "params.builds_per_task": (ratio(builds, n_tasks), "count"),
        "params.us_per_build": (1e6 * ratio(busy("params.build"), builds), "us"),
        "params.as_array_per_task": (ratio(calls("params.as_array"), n_tasks), "count"),
        "kernels.batch_calls_per_task": (ratio(batch_calls, n_tasks), "count"),
        "kernels.batch_rows_per_call": (ratio(rows, batch_calls), "count"),
        "kernels.batch_ms_per_task":
            (1e3 * ratio(busy("kernels.batch"), n_tasks), "ms"),
        "kernels.batch_us_per_row": (1e6 * ratio(busy("kernels.batch"), rows), "us"),
        "kernels.batch_valid_ratio":
            (ratio(c["kernels.batch_valid"], rows), "ratio"),
        "kernels.scalar_calls_per_task": (ratio(scalar, n_tasks), "count"),
        "kernels.scalar_us_per_call":
            (1e6 * ratio(busy("kernels.evaluate_terms"), scalar), "us"),
        "policy.scalar_calls_per_task": (ratio(evals, n_tasks), "count"),
        "policy.scalar_self_us_per_call":
            (1e6 * ratio(self_busy("policy.evaluate_policy"), evals), "us"),
        "policy.objective_self_us_per_call":
            (1e6 * ratio(self_busy("policy.objective"), objectives), "us"),
        "model.calls_per_task": (ratio(calls(*MODEL_SPANS), n_tasks), "count"),
        "model.ms_per_task": (1e3 * ratio(busy(*MODEL_SPANS), n_tasks), "ms"),
        "optimize.runs_per_task": (ratio(runs, n_tasks), "count"),
        "optimize.self_ms_per_run":
            (1e3 * ratio(self_busy("optimize.run"), runs), "ms"),
        "optimize.objective_ms_per_run": (1e3 * ratio(run_objective, runs), "ms"),
        "optimize.gens_to_target":
            (ratio(c["optimize.gens_to_target"], runs), "count"),
        "sensitivity.self_ms_per_task":
            (1e3 * ratio(self_busy("sensitivity.run_sweep"), n_tasks), "ms"),
        "anfis.dataset_ms":
            (1e3 * ratio(busy("anfis.generate_dataset"), n_tasks), "ms"),
        "anfis.train_ms": (1e3 * ratio(busy("anfis.train_hybrid"), n_tasks), "ms"),
        "anfis.epochs": (ratio(c["anfis.epochs"], n_tasks), "count"),
        "cli.self_ms_per_task": (1e3 * ratio(self_busy("cli.main"), n_tasks), "ms"),
        "cli.bytes_written_per_task": (ratio(bytes_written, n_tasks), "bytes"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in per_task.items()}
