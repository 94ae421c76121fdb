"""Host pace: a fixed reference computation timed beside every measurement.

On a shared virtual machine the same work can take twice as long from
one minute to the next, with CPU time equal to wall time: the processor
itself runs slower. Timing a fixed computation that uses no greenchain
code just before and just after each measurement gives the host's pace at
that moment. Each duration is then reported at the nominal pace, where
the reference takes `NOMINAL_S`. A change to greenchain moves the scaled
time, and a change in the host's speed mostly cancels out.
"""

from __future__ import annotations

import csv
import io
import math
import time

import numpy as np

#: Reference duration that defines the nominal pace.
NOMINAL_S = 0.020


def reference_seconds() -> float:
    """Wall time of the reference computation.

    It mixes the work the workloads do: NumPy over large arrays, Python
    float arithmetic and CSV formatting. So it slows down with the host
    the way they do.
    """
    start = time.perf_counter()
    x = np.linspace(0.0, 1.0, 20_000)
    for _ in range(10):
        np.exp(-x) * np.sin(x) + np.sqrt(x + 1.0)
    total = 0.0
    for i in range(40_000):
        total += math.sqrt(i) * 0.5
    writer = csv.writer(io.StringIO())
    for i in range(6_000):
        writer.writerow([repr(i * 0.1), repr(i * 0.2)])
    return time.perf_counter() - start


def scale_factors(refs) -> list[float]:
    """Factor for measurement i, taken between refs[i] and refs[i + 1]."""
    return [2.0 * NOMINAL_S / (before + after)
            for before, after in zip(refs, refs[1:])]
