"""CPU speed probe that runs alongside the measured work.

On shared 2-CPU Xeon machines the speed of one process drifts by tens of
percent over minutes: the same `eigen` command took 21 s in one run and
36 s a few minutes later, and steal time explained only a small part of it.
So while a run measures, a timer signal interrupts the work every INTERVAL
seconds and, on the same thread, runs a probe: one row of a fixed dense
matrix-vector product over Fractions, the kind of arithmetic the program
does, computed twice.  Only the second, cache-warm product is timed, so the
probe measures the CPU and not the measured work's own memory traffic; a
change to the program's memory use must not move the scale.

`scaled` turns a measured wall interval into seconds at the reference speed.
It removes the probes' own time from the interval, then multiplies by the
reference probe time over the median probe time of the interval.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.02
WINDOW = 50
ROWS, COLS = 256, 48
# median probe seconds on a 2-CPU Xeon machine with Python 3.11.7; it only
# sets the scale of the reported numbers
REFERENCE_PROBE_S = 2.7e-4


class SpeedSampler:
    """Context manager that samples the probe on a timer while active."""

    def __init__(self):
        rng = random.Random(0)
        self._mat = [[Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                      for _ in range(COLS)] for _ in range(ROWS)]
        self._vec = self._mat[0]
        self._row = 0
        self.stamps: list[float] = []  # when each probe ended
        self.probe_s: list[float] = []  # time of the warm repeat
        self.spent_s: list[float] = []  # time of the whole probe
        self._old = None

    def _row_product(self) -> Fraction:
        acc = Fraction(0)
        for a, b in zip(self._mat[self._row], self._vec):
            acc += a * b
        return acc

    def probe(self) -> None:
        # the first product brings the row into cache; timing only the
        # repeat keeps the measured work's own memory traffic out of it
        t0 = time.perf_counter()
        self._row_product()
        t1 = time.perf_counter()
        self._row_product()
        t2 = time.perf_counter()
        self._row = (self._row + 1) % ROWS
        self.probe_s.append(t2 - t1)
        self.spent_s.append(t2 - t0)
        self.stamps.append(t2)

    def _on_timer(self, signum, frame) -> None:
        self.probe()

    def __enter__(self):
        for _ in range(5):
            self.probe()
        self._old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        for _ in range(5):
            self.probe()
        return False

    def scaled(self, t0: float, t1: float, on_thread: bool = True) -> float:
        """Reference-speed seconds of the wall interval [t0, t1].  Probe time
        inside it is removed when the work ran on the probing thread.  The
        speed is the median of at least WINDOW probes around the interval,
        so short intervals do not inherit the noise of a few probes."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        work = (t1 - t0) - (sum(self.spent_s[lo:hi]) if on_thread else 0.0)
        pad = max(0, WINDOW - (hi - lo) + 1) // 2
        lo, hi = max(0, lo - pad), min(len(self.probe_s), hi + pad)
        return work * REFERENCE_PROBE_S / statistics.median(self.probe_s[lo:hi])
