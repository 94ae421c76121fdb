"""Tests of the benchmark's own statistics and span bookkeeping.

    python3 -m pytest perfbench
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pace import NOMINAL_S, scale_factors  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from stats import TAIL_LADDER_PERMILLE, self_times, tail  # noqa: E402


class TestTail:
    def test_no_tail_below_forty_samples(self):
        assert tail(list(range(39))) is None
        assert tail([]) is None

    @pytest.mark.parametrize("n, percentile", [
        (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
        (1000, 99.0), (9999, 99.0), (10000, 99.9)])
    def test_highest_percentile_with_ten_beyond(self, n, percentile):
        samples = list(np.random.default_rng(n).permutation(n))
        got, value = tail(samples)
        assert got == percentile
        assert sum(1 for s in samples if s > value) >= 10
        higher = [p for p in TAIL_LADDER_PERMILLE if p / 10.0 > percentile]
        if higher:  # the next rung up would leave fewer than ten beyond it
            rank = -(-higher[0] * n // 1000)
            assert n - rank < 10

    def test_value_is_nearest_rank(self):
        # p75 of 1..40 by nearest rank is the 30th value; ten lie beyond
        assert tail(list(range(1, 41))) == (75.0, 30)


class TestSelfTimes:
    def test_children_subtracted_from_parent(self):
        # root [0, 10] with children [1, 3] and [5, 6]; grandchild [1, 2]
        starts = [0.0, 1.0, 5.0, 1.0]
        ends = [10.0, 3.0, 6.0, 2.0]
        parents = [-1, 0, 0, 1]
        assert np.allclose(self_times(starts, ends, parents), [7.0, 1.0, 1.0, 1.0])

    def test_child_covering_only_part_of_parent(self):
        # the child starts inside the parent and ends after it: only the
        # overlap [8, 10] is subtracted
        assert np.allclose(self_times([0.0, 8.0], [10.0, 14.0], [-1, 0]),
                           [8.0, 6.0])

    def test_overlapping_children_counted_once(self):
        starts = [0.0, 2.0, 3.0]
        ends = [10.0, 5.0, 6.0]
        assert np.allclose(self_times(starts, ends, [-1, 0, 0])[0], 6.0)


def test_tracer_records_nesting_only_inside_tasks():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda: inner(inner(1)))
    assert outer() == 3                    # idle: nothing recorded
    assert len(tracer.start) == 0
    assert tracer.run_task(0, outer) == 3
    a = tracer.arrays()
    names = list(a["names"][a["name_id"]])
    assert names == ["task", "outer", "inner", "inner"]
    assert list(a["parent"]) == [-1, 0, 1, 1]
    assert np.all(a["end"] >= a["start"])


def test_scale_factors_use_the_references_on_both_sides():
    # a task between a 20 ms and a 60 ms reference ran at half the pace
    assert scale_factors([NOMINAL_S, 3 * NOMINAL_S, NOMINAL_S]) == \
        pytest.approx([0.5, 0.5])


def test_layer_metrics_normalise_per_task_and_scale_times():
    tracer = Tracer()
    build = tracer.wrap("params.build", lambda: time.sleep(0.01))
    for task in range(4):
        tracer.run_task(task, lambda: [build() for _ in range(3)])
    raw = layer_metrics(tracer, [1.0] * 4, bytes_written=400)
    assert raw["params.builds_per_task"] == {"value": 3.0, "unit": "count"}
    assert raw["cli.bytes_written_per_task"]["value"] == 100.0
    assert raw["anfis.epochs"]["value"] == 0.0
    halved = layer_metrics(tracer, [0.5] * 4, bytes_written=400)
    assert halved["params.us_per_build"]["value"] == \
        pytest.approx(raw["params.us_per_build"]["value"] / 2)
