"""A fixed reference computation that measures how fast the machine runs now.

The benchmark shares a few cores of a host with other tenants, and the speed
it gets drifts: for seconds at a time it runs at one of two speeds, about
1.5 times apart, and which one holds changes from minute to minute.  A plain
Python loop slows down as much as the program does.  Two sets of runs of the
same code, made half an hour apart, then differ by more than any useful
bound, and one 5-second verification can run at both speeds.

So while the benchmark times the program, a ``SIGALRM`` handler runs a small
reference chunk every ``INTERVAL_S`` seconds of wall time in the same thread
(``SpeedSampler``), and each time is reported scaled to the reference
speed::

    reported = (measured - time in the handler) * NOMINAL_S / mean chunk time

where the mean is over the chunks that ran during the timed stretch, or the
``MIN_SAMPLES`` nearest ones when it is shorter.  The reference uses none of
the program's code, so a change to the program leaves it alone and moves the
reported time as it moves the measured one.

Small pure-Python loops take 1.6-1.8 times as long in the slow state and
60x60 numpy products 1.2 times, while the program's verifications (sweep,
fixed-point and numeric items alike) take 1.4-1.6 times as long.  The chunk
mixes the two, so it slows down as the program does: ``Fraction`` sums in a
dict keyed by bitmask pairs and a numpy product.  A chunk time is capped at
``CAP`` times ``NOMINAL_S``, so one chunk preempted for milliseconds does not
weigh like a slow second.  ``NOMINAL_S`` is what one chunk takes, between
verifications, on a 2-vCPU x86-64 machine at its fast speed, so a reported
time reads as roughly the seconds the work takes there.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.00025
INTERVAL_S = 0.02
CAP = 3.0
MIN_SAMPLES = 10

_M0 = np.random.default_rng(1).standard_normal((60, 60))


def _chunk() -> float:
    terms = {}
    for i in range(40):
        key = ((i * 2654435761) & 255, (i * 40503) & 255)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(i % 7 - 3,
                                                            1 + i % 5)
    m = np.tanh(_M0 @ _M0.T / 60.0)
    return len(terms) + float(m[0, 0])


class SpeedSampler:
    """Context manager: runs the chunk from a ``SIGALRM`` handler every
    ``INTERVAL_S`` seconds and keeps the start and seconds of each run."""

    def __init__(self):
        self.starts, self.seconds = [], []
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        _chunk()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def __enter__(self):
        for _ in range(MIN_SAMPLES):   # first calls, outside the samples
            _chunk()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _window(self, t0: float, t1: float):
        """(chunk seconds inside [t0, t1), chunk seconds to average)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.seconds[lo:hi]
        if hi - lo >= MIN_SAMPLES or len(self.starts) <= MIN_SAMPLES:
            return inside, self.seconds[lo:hi] or self.seconds
        # widen around the stretch until MIN_SAMPLES chunks are in
        while hi - lo < MIN_SAMPLES:
            if lo > 0 and (hi >= len(self.starts)
                           or t0 - self.starts[lo - 1]
                           <= self.starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return inside, self.seconds[lo:hi]

    def factor(self, t0: float, t1: float) -> float:
        """Measured seconds in [t0, t1) to seconds at the reference speed."""
        _, window = self._window(t0, t1)
        if not window:
            return 1.0
        return NOMINAL_S / statistics.mean(min(s, CAP * NOMINAL_S)
                                           for s in window)

    def program_seconds(self, t0: float, t1: float) -> float:
        """Seconds in [t0, t1) not spent in the handler."""
        inside, _ = self._window(t0, t1)
        return t1 - t0 - sum(inside)

    def scaled(self, t0: float, t1: float) -> float:
        """Program seconds in [t0, t1) at the reference speed."""
        return self.program_seconds(t0, t1) * self.factor(t0, t1)
