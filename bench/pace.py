"""Host pace: a fixed reference workload timed beside the program.

On a shared host the speed of this process drifts, by up to 1.8x between
windows of a few seconds and by 1.4x over minutes, and the drift is on-CPU
(thread CPU time slows as much as wall time), so no estimator over the
program's own samples removes it.  The benchmark
therefore times a fixed reference workload throughout each run and reports
every end-to-end time scaled to a nominal pace::

    reported = measured * NOMINAL_S / pace near the sample

A reading is the geometric mean of three small kernels that load the host
the way the program does: string keys and dict counting (the cube cover),
large integer sets (ingest and ``analyze``), and complex BLAS and vector
arithmetic (dense verification).  The kernels never call blockenc, so any
change to the program moves the reported times in full.  The garbage
collector is paused while a kernel runs, so the program's heap does not
change the reading.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time
from itertools import combinations

import numpy as np

# About the median reading on a 2-CPU x86-64 Xeon container at 2.1 GHz; it
# only sets the scale of the reported times.
NOMINAL_S = 0.005
# A reading is taken when this long has passed since the last one.
EVERY_S = 0.25
# A sample is scaled by the median of this many readings nearest to it.
NEAREST = 6
# Most readings taken at once after a long operation.
MAX_BURST = 4

_rng = np.random.default_rng(7)
_STRINGS = ["".join("01"[b] for b in row) for row in _rng.integers(0, 2, (90, 9))]
_MATRIX = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))
_PRODUCT = np.empty_like(_MATRIX)
_VECTOR = _rng.standard_normal(1 << 18) + 0j
_SCRATCH = np.empty_like(_VECTOR)


def _strings() -> int:
    found = 0
    for free in combinations(range(9), 2):
        groups: dict[str, int] = {}
        for s in _STRINGS:
            key = "".join("X" if i in free else c for i, c in enumerate(s))
            groups[key] = groups.get(key, 0) + 1
        found += sum(1 for c in groups.values() if c == 4)
    return found


def _sets() -> int:
    rows = set(range(0, 1 << 16, 3))
    cols = {i ^ 5 for i in rows}
    return len(rows & cols) + len(sorted(rows)[::97])


def _dense() -> float:
    # Preallocated outputs: a fresh large array would time page faults,
    # whose cost depends on the allocator's state, not on the host.
    np.matmul(_MATRIX, _MATRIX, out=_PRODUCT)
    for _ in range(2):
        np.multiply(_VECTOR, 1.0001, out=_SCRATCH)
        np.subtract(_SCRATCH, _VECTOR, out=_SCRATCH)
    return float(_SCRATCH[0].real + _PRODUCT[0, 0].real)


KERNELS = (_strings, _sets, _dense)


def reading() -> float:
    """Geometric mean of the kernels' times, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        logs = []
        for kernel in KERNELS:
            t0 = time.perf_counter()
            kernel()
            logs.append(math.log(time.perf_counter() - t0))
    finally:
        if enabled:
            gc.enable()
    return math.exp(statistics.fmean(logs))


class Pace:
    """Pace readings of one run, with the time each was taken."""

    def __init__(self, warmup: int = 2) -> None:
        for _ in range(warmup):
            reading()
        self.at: list[float] = []
        self.values: list[float] = []

    def read(self) -> None:
        t0 = time.perf_counter()
        value = reading()
        self.at.append((t0 + time.perf_counter()) / 2)
        self.values.append(value)

    def tick(self) -> None:
        """Take a reading for each EVERY_S since the last one, at most
        MAX_BURST, so that long operations get more than one."""
        due = 1 if not self.at else int((time.perf_counter() - self.at[-1]) / EVERY_S)
        for _ in range(min(due, MAX_BURST)):
            self.read()

    def median(self) -> float:
        return statistics.median(self.values)

    def scale(self, t: float) -> float:
        """Factor that takes a time measured at ``t`` to the nominal pace."""
        i = bisect.bisect_left(self.at, t)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return NOMINAL_S / statistics.median(self.values[lo:lo + NEAREST])
