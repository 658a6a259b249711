"""Machine-speed probe.

On a shared virtual machine the CPU speed swings with the load of other
tenants: on a 2-core one, the summed time of twenty identical
solves (about 9 s) varied by 15% between quartiles. A fixed kernel of the
same character (small dense numpy updates, a LAPACK call, an interpreter
loop) slows with it, and the same twenty solves measured against that kernel
varied by 4.5%.

``SpeedProbe.running()`` samples the kernel on a wall-clock timer while
solves run (SIGALRM, handled between bytecodes), so samples cover every
solve, long ones included. The time spent in the handler is reported so the
caller can take it out of each solve's time. ``factor(start, end)`` converts
seconds measured in that interval to reference seconds, seconds on a machine
where the kernel takes REFERENCE_S. It uses the mean of the samples taken
within MARGIN_S of the interval: the speed changes within a run, and the
mean weighs slow and fast stretches by their length as a solve does. Over
six identical 12 s crawls in one process, the unscaled time varied by 31%
from the fastest to the slowest, the scaled time by 6%.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time

import numpy as np

# mean kernel time on the machine the reference digests were recorded on
# (2 cores, one BLAS thread); it only sets the scale of reference seconds
REFERENCE_S = 2.6e-3
PERIOD_S = 0.1
MARGIN_S = 0.25
MIN_SAMPLES = 5

_B = np.random.default_rng(0).standard_normal((40, 40))
_A = _B @ _B.T + 40.0 * np.eye(40)


def kernel() -> float:
    acc = 0.0
    for _ in range(4):
        w = _A.copy()
        for j in range(0, 40, 2):
            col = w[j + 1 :, j]
            w[j + 1 :, j + 1 :] -= np.outer(col, col) / (w[j, j] + 40.0)
        acc += float(np.linalg.det(w[:20, :20]))
        for k in range(4000):
            acc += k * k % 7
    return acc


class SpeedProbe:
    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.samples: list = []  # (perf_counter at the end, kernel seconds)
        self.spent = 0.0  # seconds spent in the handler

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Reference seconds per measured second in [start, end], from the
        samples near it, or from all samples when fewer than MIN_SAMPLES
        are near."""
        near = [d for t, d in self.samples if start - MARGIN_S <= t <= end + MARGIN_S]
        if len(near) < MIN_SAMPLES:
            near = [d for _, d in self.samples]
        return REFERENCE_S / statistics.fmean(near)
