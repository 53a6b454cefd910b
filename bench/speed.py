"""Machine-speed probe: scales measured times to a fixed reference speed.

On a shared virtual machine the same code runs up to ~1.5x slower while a
neighbour loads the host, and the share of slow time drifts over minutes, so
the wall time of an unchanged program moves by more than a regression bound
from one process to the next.  ``SpeedProbe`` samples the machine's speed
while the workload runs: every ``INTERVAL_S`` a SIGALRM handler runs a fixed
piece of interpreter and BLAS work (independent of condrec) and records how
long it took.  ``scaled(start, end)`` takes the time the workload spent in
``[start, end)``, less the probe's own time, and scales it by
``REFERENCE_S / mean probe time`` over the same interval: seconds at the
speed at which the probe takes ``REFERENCE_S``.  A change to condrec moves
the scaled time as it moves the raw one; a change in the machine's speed
cancels, as far as the probe slows down like the workload does.

Python runs signal handlers in the main thread between bytecodes, so a probe
never interrupts numpy or scipy inside C code and cannot alter results.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# probe time at full speed on the 2-vCPU Xeon VM the benchmark was defined on
# (one BLAS thread); only the ratio to it matters
REFERENCE_S = 250e-6
LOOP = 3000
_M = np.random.default_rng(0).random((64, 64))


class SpeedProbe:
    """Context manager sampling the machine's speed during the ``with`` block."""

    def __init__(self):
        self.samples = []  # (start stamp, duration) of every probe

    def _tick(self, signum, frame):
        t = time.perf_counter()
        s = 0.0
        for i in range(LOOP):
            s += i * 0.5
        _M @ _M
        _M @ _M
        self.samples.append((t, time.perf_counter() - t))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, start, end):
        """Mean probe time in ``[start, end)`` over ``REFERENCE_S``.

        An interval too short to hold a probe takes the mean of all probes.
        """
        inside = [d for t, d in self.samples if start <= t < end]
        return statistics.fmean(inside or [d for _, d in self.samples]) / REFERENCE_S

    def busy(self, start, end):
        """Seconds in ``[start, end)`` less the time the probes took."""
        return end - start - sum(d for t, d in self.samples if start <= t < end)

    def scaled(self, start, end):
        """Workload seconds in ``[start, end)`` at the reference speed."""
        return self.busy(start, end) / self.slowdown(start, end)
