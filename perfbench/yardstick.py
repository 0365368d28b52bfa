"""Reference-speed timing: scale each interval by a yardstick measured next to it.

Small shared hosts change CPU speed under a running benchmark: the same
sandpile job can take 29 ms for several seconds and then 51 ms, with CPU
time tracking wall time, so the slowdown is in the core itself and not in
scheduling.  No amount of repetition inside one run removes a phase that
lasts longer than the run.

The benchmark therefore times a fixed *yardstick* between jobs — a small
sandpile written here with the same mix of NumPy calls and Python loops as
the program, so that it slows with the core in the same proportion, and
sharing no code with the program, so no change to the program moves it.
An interval is reported in *reference time*: its measured length times
``REF_S`` over the median yardstick time of the probes nearest to it.  On
a core in its fast state the two agree within a few percent.

What this hides, by design: a slowdown the program causes across the whole
process also slows the yardstick and is divided back out — a background
thread holding the GIL, worker processes left busy on the cores, cache or
memory pressure that outlasts a job.  Work that the yardstick does not
resemble (process start, pipes) is scaled by the yardstick's factor all
the same.  The benchmark therefore prints and records every end-to-end
time in wall time as well, and a claim should hold in both.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: nominal yardstick time (its fast-state median is about 0.52 ms on a 2-core x86-64 VM)
REF_S = 0.5e-3
#: probes whose median sets the speed factor of one interval
NEAREST = 5


def yardstick() -> int:
    """Twelve synchronous topplings of an 18x18 pile plus a 4x4 tile sweep."""
    g = np.zeros((18, 18), dtype=np.int64)
    g[9, 9] = 96
    acc = 0
    for _ in range(12):
        inner = g[1:-1, 1:-1]
        q = inner // 4
        g[1:-1, 1:-1] = (inner % 4 + g[:-2, 1:-1] // 4 + g[2:, 1:-1] // 4
                         + g[1:-1, :-2] // 4 + g[1:-1, 2:] // 4)
        g[0, :] = g[-1, :] = g[:, 0] = g[:, -1] = 0
        for ty in range(0, 16, 4):
            for tx in range(0, 16, 4):
                acc += int(q[ty:ty + 4, tx:tx + 4].sum())
    return acc


class Speed:
    """Yardstick probes over a run, and the speed factor at any time."""

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self._times: list[float] = []
        self._durations: list[float] = []

    def probe(self) -> None:
        """Time one yardstick now (call only while the program is idle)."""
        t0 = self.clock()
        yardstick()
        t1 = self.clock()
        self.record((t0 + t1) / 2, t1 - t0)

    def record(self, at: float, duration: float) -> None:
        """Add one probe that took *duration* seconds around time *at*."""
        i = bisect.bisect(self._times, at)
        self._times.insert(i, at)
        self._durations.insert(i, duration)

    def __len__(self) -> int:
        return len(self._times)

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median yardstick of the probes nearest the interval."""
        if not self._times:
            raise ValueError("no yardstick probes recorded")
        mid = (start + end) / 2
        i = bisect.bisect(self._times, mid)
        lo, hi = i, i
        while hi - lo < min(NEAREST, len(self._times)):
            # widen towards whichever side holds the nearer probe
            if lo > 0 and (hi == len(self._times) or mid - self._times[lo - 1]
                           <= self._times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return REF_S / statistics.median(self._durations[lo:hi])

    def median_between(self, start: float, end: float) -> float:
        """Median yardstick time of the probes taken in ``[start, end]``."""
        lo, hi = bisect.bisect_left(self._times, start), bisect.bisect_right(self._times, end)
        if lo == hi:
            raise ValueError("no yardstick probes in the interval")
        return statistics.median(self._durations[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """The interval's length in reference time."""
        return (end - start) * self.factor(start, end)

    def summary(self) -> dict:
        """Probe count and yardstick times (ms), for the run record."""
        d = sorted(self._durations)
        return {"probes": len(d), "ref_ms": REF_S * 1e3, "min_ms": d[0] * 1e3,
                "median_ms": statistics.median(d) * 1e3, "max_ms": d[-1] * 1e3}
