"""Host-speed calibration of timed intervals.

The benchmark runs on small shared hosts whose speed drifts by up to 2x
over seconds to minutes, and the slowdown shows in process CPU time as
much as in wall time, so neither clock alone can tell a slower program
from a busier host. Every timed interval is therefore bracketed by two
samples of a fixed pure-Python loop (``sample``), taken when nothing
else of the benchmark runs, and reported in *reference seconds*: its
wall time times ``REF_S`` over the mean loop time of the two samples.
On a host running at the reference speed a reference second is a wall
second.

The speed drifts separately on each CPU, so the benchmark pins itself
and every process it starts to one CPU (``pin``): the loop then runs
where the timed work runs. On a 2-CPU Xeon the correlation between a
CLI scan's wall time and the loop timings around it was 0.84 pinned
and 0.02 unpinned.

The loop splits its time between interpreted arithmetic with dict
stores and products of small complex matrices in numpy, the two kinds
of work the program does. Against analyze() at s = 1 to 10 over a 9-min
trace, the spread of calibrated times was 0.051 with both parts, 0.062
with the arithmetic alone and 0.071 with the matrices alone.

The loop does not touch spinsqueeze, so a change to the program moves
the interval and not the calibration.
"""

from __future__ import annotations

import os
import time

import numpy as np

REF_S = 0.025       # seconds one loop takes at the reference speed
LOOP_N = 60_000     # interpreted iterations per loop
MATMULS = 240       # rounds of products over _MATRICES per loop
LOOPS = 4           # loops per sample, unless a caller asks for fewer

# the size of the density matrices at s = 10
_MATRICES = [(np.arange(441.0).reshape(21, 21) % (k + 5) - 2.0) * (1.0 + 1.0j) / 21.0
             for k in range(8)]


def loop() -> float:
    acc, table = 0.0, {}
    for i in range(LOOP_N):
        acc += (i * 0.5) % 3.0
        table[i & 255] = acc
    for _ in range(MATMULS):
        for m in _MATRICES:
            m @ m
    return acc


def sample(loops: int = LOOPS) -> float:
    """Wall seconds per calibration loop, over ``loops`` loops."""
    start = time.perf_counter()
    for _ in range(loops):
        loop()
    return (time.perf_counter() - start) / loops


def factor(before: float, after: float) -> float:
    """Reference seconds per wall second between two loop timings."""
    return 2.0 * REF_S / (before + after)


def pin() -> set:
    """Pin this process, and so every process it starts, to the
    highest-numbered CPU it may use; return the CPUs it could use
    before, for work that needs them all."""
    cpus = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {max(cpus)})
    except OSError:
        pass
    return cpus
