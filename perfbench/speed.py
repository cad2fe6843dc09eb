"""Machine-speed probe: a fixed reference kernel timed beside the ops.

On a shared host the CPU speed seen by one process drifts by tens of
percent within seconds, far more than the changes the benchmark has to
resolve. The probe times a fixed reference kernel (pure Python plus 8x8
numpy and LAPACK calls, the same mix as the package's own work), and each
measured time is scaled by the kernel's rate in a window around it,
relative to ``NOMINAL_RATE``: a corrected time is what the op would take
with the machine running the kernel at ``NOMINAL_RATE``. The kernel does
not touch the package, so no change to the package moves it, and the raw
times are reported beside the corrected ones.

In the timed loop an interval timer interrupts the process every
``PERIOD_S`` and the signal handler runs one kernel; its time is taken
out of the op it interrupted. Python runs the handler between bytecodes
of the main thread, so it never interrupts a C call halfway, and system
calls that it interrupts are retried (PEP 475).

The setup interpreters run in child processes, whose start-up, imports and
page faults the in-process kernel did not track. Each is corrected instead
by a reference interpreter that imports numpy and scipy but not the
package, timed just before and just after it; a kernel beside a child
would compete with it for the machine.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
from time import perf_counter

import numpy as np

NOMINAL_RATE = 400.0   # kernels per second that define nominal speed
PERIOD_S = 0.025       # one kernel (about 2.5 ms) per period
WINDOW_S = 0.25        # kernels this close to an op set its speed factor
MIN_KERNELS = 8

# a fresh interpreter importing what the package imports, but not the package
REFERENCE_CODE = "import argparse, csv, json, numpy, scipy.linalg, scipy.optimize"
NOMINAL_REFERENCE_S = 0.5  # reference interpreter wall time at nominal speed

_MATRIX = np.arange(64, dtype=float).reshape(8, 8) / 64.0 + np.eye(8)


def kernel() -> float:
    acc = 0.0
    counts: dict[int, int] = {}
    for i in range(60):
        v = _MATRIX @ _MATRIX.T
        acc += float(np.linalg.eigvalsh(v)[0]) + bool(np.allclose(v, v.T))
        counts[i % 7] = counts.get(i % 7, 0) + i
    return acc


class SpeedProbe:
    """When each kernel ended and how long it took, while ``running()``."""

    def __init__(self):
        self.ends: list[float] = []
        self.cumulative = [0.0]  # kernel seconds before each kernel, and in all
        self._busy = False

    @property
    def seconds(self) -> float:
        return self.cumulative[-1]

    def _run_kernel(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.ends.append(t1)
        self.cumulative.append(self.cumulative[-1] + t1 - t0)

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during a kernel is dropped
            return
        self._busy = True
        self._run_kernel()
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """Machine speed over nominal around [start, end].

        The kernel rate over the kernels that ended within WINDOW_S of
        the interval, divided by NOMINAL_RATE; a time measured in the
        interval times this factor is the corrected time.
        """
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        if hi - lo < MIN_KERNELS:  # too few nearby: use the whole phase
            lo, hi = 0, len(self.ends)
        return (hi - lo) / (self.cumulative[hi] - self.cumulative[lo]) / NOMINAL_RATE


def reference_factor(before: float, after: float) -> float:
    """Machine speed over nominal from the reference interpreter times
    measured just before and just after a child process."""
    return 2.0 * NOMINAL_REFERENCE_S / (before + after)
