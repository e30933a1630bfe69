"""The machine's speed, probed while a run measures, and times rescaled by it.

The shared host this benchmark was built on changes its speed by up to
1.6x, in phases from a fraction of a second to minutes long, so the same
command can take 3 s in one run and 5 s in the next. While a run's passes
execute, the probe times a fixed pure-Python loop: every PROBE_INTERVAL
seconds from a SIGALRM handler, and, from run.py, just before and just
after each command. A command's time is then reported at the reference
speed: its seconds, less the probes that ran inside it, times
PROBE_REFERENCE_S over the mean time of the probes taken while it ran (or,
if fewer than MIN_PROBES ran then, of the nearest ones).
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

PROBE_LOOPS = 30_000
PROBE_INTERVAL = 0.25      # s between timer probes
# the median time of 424 probes over six sm-wide runs on the
# machine of README.md, so that rescaled times read close to wall time there
PROBE_REFERENCE_S = 0.0065
MIN_PROBES = 2


def probe_loop(n: int = PROBE_LOOPS) -> None:
    table: dict[int, int] = {}
    for i in range(n):
        key = i & 1023
        table[key] = table.get(key, 0) + i


class SpeedProbe:
    """Probe times, when each was taken, and the seconds spent probing."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0
        self.busy = False

    def sample(self, *_signal) -> None:
        if self.busy:  # the timer fired inside a probe; skip this one
            return
        self.busy = True
        start = time.perf_counter()
        probe_loop()
        seconds = time.perf_counter() - start
        self.at.append(start)
        self.seconds.append(seconds)
        self.spent += seconds
        self.busy = False

    @contextlib.contextmanager
    def running(self):
        """Probe every PROBE_INTERVAL seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """PROBE_REFERENCE_S over the mean probe time around [start, end]."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return PROBE_REFERENCE_S / statistics.mean(self.seconds[lo:hi])

    def rescale(self, spans) -> list[float]:
        """Seconds at the reference speed of (start, end, seconds) spans."""
        return [seconds * self.scale(start, end)
                for start, end, seconds in spans]
