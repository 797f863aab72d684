"""A speed probe that samples how fast the host runs Python right now.

The benchmark shares a virtual machine whose speed for pure-Python code
drifts by more than 2x in phases of well under a second to minutes;
process CPU time drifts with it, so the slowdown is not time spent
descheduled.
The probe runs a fixed, hclab-like piece of work (`Fraction` arithmetic
and a dict of tuples) from a SIGALRM handler every `INTERVAL` seconds,
in the benchmark's own thread, and keeps the start and duration of each
run.  The timed regions are then

    reference seconds = (raw seconds - probe seconds inside the region)
                        * mean over the region's probe runs of
                          REFERENCE / probe duration

that is, the time the region would have taken at the speed at which the
probe takes `REFERENCE` seconds.  Two pieces of different pure-Python
work timed this way stayed within about 3% of each other while each
alone moved by 25%.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL = 0.01
# the probe's usual duration while hclab runs, on the machine the
# benchmark was defined on (2-vCPU Intel Xeon VM, Python 3.11.7)
REFERENCE = 3.8e-4
# fewer samples than this in a region: use the nearest ones instead
MIN_SAMPLES = 5


def probe_work():
    acc = Fraction(0)
    table = {}
    for i in range(1, 40):
        acc += Fraction(i, i + 2) * Fraction(3, i + 1)
        table[(i, i % 5)] = acc
    return len(table)


class Probe:
    """`with Probe() as probe:` samples until the block ends."""

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.starts = []        # perf_counter at the start of each sample
        self.seconds = []       # its duration
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        probe_work()
        self.seconds.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start, end):
        """The region [start, end) of perf_counter time, without the
        probe's own runs, scaled to the reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = sum(self.seconds[lo:hi])
        if hi - lo < MIN_SAMPLES:
            # a short region: the samples nearest to it
            lo = max(0, min(lo, len(self.starts) - MIN_SAMPLES))
            hi = min(len(self.starts), lo + MIN_SAMPLES)
        if hi == lo:
            raise RuntimeError("the speed probe took no samples")
        durations = self.seconds[lo:hi]
        speed = sum(REFERENCE / d for d in durations) / len(durations)
        return (end - start - own) * speed
