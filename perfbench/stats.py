"""Order statistics and span arithmetic used by the benchmark."""

from __future__ import annotations

from collections import defaultdict

import numpy as np

#: Candidate tail percentiles in permille, lowest first.
TAIL_LADDER_PERMILLE = (750, 900, 950, 990, 999)
#: Below this many samples no percentile has ten samples beyond it.
MIN_TAIL_SAMPLES = 40
MIN_BEYOND = 10


def tail(samples) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value)`` by the nearest-rank rule, or None when
    there are fewer than 40 samples (then no percentile qualifies: p75 of
    39 samples leaves only nine beyond it).
    """
    n = len(samples)
    if n < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(samples)
    best = None
    for permille in TAIL_LADDER_PERMILLE:
        rank = -(-permille * n // 1000)          # ceil, in exact integers
        if n - rank >= MIN_BEYOND:
            best = (permille / 10.0, ordered[rank - 1])
    return best


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the part of it covered by its children.

    ``parents[i]`` is the index of span i's parent, or -1.  Child intervals
    are clipped to the parent and merged first, so overlapping children or
    a child reaching past its parent are not counted twice.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    out = ends - starts
    children = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[int(parent)].append(i)
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        pieces = sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids)
        covered = 0.0
        run_start = run_end = None
        for s, e in pieces:
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[parent] -= covered
    return out
