"""Machine-speed calibration by a fixed reference computation.

The shared host this benchmark was defined on changes speed by up to 2x
over tens of seconds: a fixed 0.2 s pure-Python loop ran in 0.19-0.38 s
within one minute, and whole runs sped up and slowed down together with
their own set-up probe.  Runs are therefore timed against a reference
computation sampled every REF_EVERY_S seconds of loop time.  Every call's
wall time is multiplied by REF_MS / (median reference time from
REF_WINDOW_S before the call to REF_WINDOW_S after it).  That reports it in
milliseconds of a machine on which the reference takes REF_MS.  Windows of
0.25-2.5 s were compared on ten seeds of every workload.  Quartile spreads
fell as the window shrank, because the host's speed also swings within
seconds.

The reference is plain Fraction and mpmath arithmetic, the same kinds of work
centersolve does.  It does not import centersolve, so no change to the
program can move it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

import mpmath

#: Nominal reference time: calibrated times are ms of a machine that runs
#: `reference()` in this long (its typical time where the benchmark was set).
REF_MS = 5.0
REF_EVERY_S = 0.25
REF_WINDOW_S = 0.5


def reference():
    acc = Fraction(0)
    for k in range(1, 150):
        acc += Fraction(k, k + 7) * Fraction(3, k + 1)
    with mpmath.workprec(192):
        z = mpmath.mpc(1, 1)
        for _ in range(150):
            z = z * mpmath.mpc(0.999, 0.001) + 1 / (z + 3)
    return acc, z


def time_reference() -> float:
    """Seconds for one `reference()`, without garbage-collection pauses, which
    depend on how much the program left on the heap, not on machine speed."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Calibration:
    """Reference samples keyed by loop position (seconds of timed calls)."""

    def __init__(self):
        self.positions = []
        self.seconds = []

    def maybe_sample(self, pos: float):
        if not self.positions or pos - self.positions[-1] >= REF_EVERY_S:
            self.positions.append(pos)
            self.seconds.append(time_reference())

    def factor_at(self, pos: float, duration: float) -> float:
        """Multiplier from wall to calibrated seconds for a call at `pos`."""
        lo = bisect.bisect_left(self.positions, pos - REF_WINDOW_S)
        hi = bisect.bisect_right(self.positions, pos + duration + REF_WINDOW_S)
        window = self.seconds[lo:hi] or self.seconds
        return REF_MS / 1e3 / statistics.median(window)

    def run_factor(self) -> float:
        return REF_MS / 1e3 / statistics.median(self.seconds)
