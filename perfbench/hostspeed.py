"""Host-speed reference for the benchmark's timings.

On a shared host the same operation runs up to half again as long for
stretches of several seconds. Over ten 30-second windows of identical
`citeheat run` operations, the window medians spread by 21% (interquartile
range over median). A fixed reference task slows with the host, not with
the program. Scaling every operation by ``REFERENCE / reference time
measured next to it`` expresses its time in seconds at the reference host
speed. The same windows then spread by 2.6% when the reference runs as a
child process next to each CLI operation, and by 5.5% when it runs inside
the benchmark process.

A reference only cancels the host's drifts if it is as sensitive to them as
the work it scales, so there are two:

* ``python3 perfbench/hostspeed.py`` is the reference *child* for CLI
  operations. The benchmark process times it from spawn to exit next to
  every operation, so it pays for interpreter start and the numpy import as
  the CLI does. Its task splits TSV lines into a dict keyed by name pairs
  and sorts an array, like ingest.
* ``measure()`` is the in-process reference for the library workload, which
  calls it around every cycle of operations. Its task does what one
  flag-report-and-graph operation does: array arithmetic over cells, an
  exact sum, a scatter-add into node totals and a small dict of name pairs.
  Over 15-second windows of library operations it cut the spread of window
  medians from 19% to 3.9%. The TSV task, used in-process instead, slowed
  more than the operations did and left 11.5%.

The constants are the references' medians on the 2-core machine where the
baseline was measured (Python 3.11.7, numpy 2.4.6). They only fix the unit:
on that host, at ordinary speed, reference seconds and wall seconds roughly
agree.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_CHILD_S = 0.38
REFERENCE_TASK_S = 0.0075

_RNG = np.random.default_rng(0)
_ARRAY = _RNG.random(100_000)
_LINES = [f"Journal {i % 911}\tJournal {i % 997}\t{i % 7 + 1}" for i in range(20_000)]
_CHILD_REPEATS = 12
_NODES = 700
_INDEX = _RNG.integers(0, _NODES, size=16_000)
_PRIOR = _RNG.random(16_000) + 0.01
_POSTERIOR = _RNG.random(16_000) + 0.01
_NAME_PAIRS = [(f"J {i % 300}", f"J {i * 7 % 300}") for i in range(3_000)]


def _tsv_task() -> None:
    cells: dict = {}
    for line in _LINES:
        citing, cited, count = line.split("\t")
        key = (citing, cited)
        cells[key] = cells.get(key, 0) + int(count)
    float(np.log2(np.sort(_ARRAY) + 1.0).sum())


def _array_task() -> float:
    start = time.perf_counter()
    for _ in range(4):
        values = _POSTERIOR * np.log2(_POSTERIOR / _PRIOR)
        totals = np.zeros(_NODES)
        np.add.at(totals, _INDEX, values)
        math.fsum(values.tolist())
        edges: dict = {}
        for a, b in _NAME_PAIRS:
            key = (a, b) if a < b else (b, a)
            edges[key] = edges.get(key, 0.0) + 1.0
    return time.perf_counter() - start


def measure() -> float:
    """The in-process reference's time now: the median of three runs."""
    return statistics.median(_array_task() for _ in range(3))


def task_scale(before: float, after: float) -> float:
    """Wall seconds -> reference seconds, for work done between two
    in-process measurements."""
    return REFERENCE_TASK_S / ((before + after) / 2.0)


def child_scale(before: float, after: float) -> float:
    """Wall seconds -> reference seconds, for an operation run between two
    reference children."""
    return REFERENCE_CHILD_S / ((before + after) / 2.0)


if __name__ == "__main__":
    for _ in range(_CHILD_REPEATS):
        _tsv_task()
