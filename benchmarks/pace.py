"""Host pace: the speed of this host over time, read off a fixed block of
interpreter work timed between ops.

The shared host this benchmark was built on runs the same pure-Python loop
at speeds that differ by up to 1.6x, in phases lasting seconds, whatever
the benchmark does.  Op latencies are therefore reported at a nominal pace:
each measured latency is scaled by NOMINAL_MS over the reference block's
median time in a window around the op.  A change to the library moves the
op times and not the reference block, so it still shows in full.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Reference block time, in ms, that defines the nominal pace.
NOMINAL_MS = 0.6
#: Timed runs of the reference block per sample; the sample is the fastest,
#: which drops interrupts and other one-off delays but not a slow phase.
REPEATS = 3
#: Least time between two reference samples, in seconds.
EVERY_S = 0.1
#: Samples within this many seconds of an op set its pace.
WINDOW_S = 0.5


def reference_block() -> int:
    """Fixed work in the style of the library's inner loops: labels,
    frozenset edges, dict lookups and a keyed sort."""
    index = {}
    edges = set()
    for i in range(300):
        a, b = f"v{i}", f"v{(i * 7 + 3) % 300}"
        index[a] = i
        if a != b:
            edges.add(frozenset((a, b)))
    pairs = [tuple(sorted(e, key=index.__getitem__)) for e in edges]
    pairs.sort(key=lambda p: (index[p[0]], index[p[1]]))
    return len(pairs)


class Pace:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        """Time the reference block if the last sample is old enough."""
        now = time.perf_counter()
        if now - self._last < EVERY_S:
            return
        reference_block()  # warm the caches the previous op left cold
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference_block()
            best = min(best, time.perf_counter() - start)
        self.times.append(start)
        self.durations.append(best)
        self._last = time.perf_counter()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_MS over the median reference time around [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.durations[lo:hi]
        if not window:
            k = min(bisect.bisect_left(self.times, start), len(self.times) - 1)
            window = [self.durations[k]]
        return NOMINAL_MS / (statistics.median(window) * 1000.0)
