"""Reference-speed sampling, so timings on a shared machine can be compared.

On a machine shared with other tenants the interpreter's speed drifts by
tens of percent from one second to the next and from one minute to the
next, so raw wall times of identical work spread too widely to compare two
commits. While a run measures, a SIGALRM handler times a fixed reference
loop every PERIOD_S. A time measured over [start, end] is then scaled by
REF_S / (mean reference time within PERIOD_S of that interval): it is
reported at the speed at which the reference loop takes REF_S. Neighbouring
timings share the machine's speed, which is what the scaling cancels.

The same handler stops an in-process op that outruns its deadline.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.05
REF_ITERATIONS = 2000
REF_S = 0.0005  # the reference loop's time at the speed timings are reported at


class OpTimeout(BaseException):
    """Raised inside an op that passed its deadline; a BaseException so the
    CLI's own error handling cannot swallow it."""


def reference_loop() -> int:
    """Fixed interpreter work: dict stores and lookups and small-int arithmetic."""
    table = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        table[i & 127] = acc
        acc = (acc * 31 + table.get((i * 7) & 127, i)) % 1_000_003
    return acc


class SpeedSampler:
    """Context manager that samples the reference speed while it is open."""

    def __init__(self):
        self.times = []  # start of each reference sample
        self.durations = []
        self.deadline = None  # perf_counter time after which the running op is stopped

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.times.append(start)
        self.durations.append(end - start)
        if self.deadline is not None and end > self.deadline:
            self.deadline = None
            raise OpTimeout

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """end - start at the reference speed."""
        i = bisect.bisect_left(self.times, start - PERIOD_S)
        j = bisect.bisect_right(self.times, end + PERIOD_S)
        window = self.durations[i:j] or [self.durations[min(i, len(self.durations) - 1)]]
        return (end - start) * REF_S / statistics.fmean(window)

    def reference_ms(self) -> float:
        return statistics.median(self.durations) * 1000
