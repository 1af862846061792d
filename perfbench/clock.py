"""Times rescaled to a fixed CPU speed.

On a shared host this CPU's speed drifts by 20-40% over tens of seconds
(other tenants, frequency changes), which swamps the run-to-run differences
the benchmark is meant to show.  So a timer signal makes the worker run a
fixed pure-Python reference loop every SAMPLE_EVERY_S, also in the middle of
a long library call, and again between timed units once UNIT_GAP_S has
passed since the last sample.  Every interval is rescaled to the speed at
which that loop takes REF_NOMINAL_S: its uncontended time on the 2-core
x86-64 virtual machine (Python 3.11) where baseline.json was taken.  Each
stretch of work uses the median of the samples taken within WINDOW_S of it,
which follows the drift but not the jitter of single samples.  The sampling
time itself is left out of every interval.  Raw times are reported next to
the rescaled ones.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REF_ITERS = 6000
REF_NOMINAL_S = 0.0070
SAMPLE_EVERY_S = 0.25
UNIT_GAP_S = 0.05
WINDOW_S = 1.0


def _ref_loop() -> float:
    """Small dicts, tuples, sorting and int arithmetic: the operation mix of
    the library's exact arithmetic, written without it.  Contention slows
    this mix much as it slows the library; a bare integer loop tracks it
    about half as well."""
    start = perf_counter()
    acc: dict = {}
    for k in range(REF_ITERS):
        d = {k % 7: k + 1, (k + 3) % 5: -k - 1, k % 11: 2 * k + 1}
        t = tuple(sorted((e, c) for e, c in d.items() if c))
        acc[t[0][0]] = acc.get(t[0][0], 0) + len(t)
    return perf_counter() - start


class Clock:
    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # start, end, ref
        self.total = 0.0  # seconds spent sampling so far
        self._sampling = False
        self.sample()

    def sample(self) -> None:
        """Time the reference loop once.  A timer signal that arrives while
        a sample runs is dropped, so samples never nest."""
        if self._sampling:
            return
        self._sampling = True
        try:
            start = perf_counter()
            ref = _ref_loop()
            end = perf_counter()
            self.samples.append((start, end, ref))
            self.total += end - start
        finally:
            self._sampling = False

    def sample_between_units(self) -> None:
        """Sample at a unit boundary if none was taken in the last
        UNIT_GAP_S, so bursts of short units get dense samples."""
        if perf_counter() - self.samples[-1][1] >= UNIT_GAP_S:
            self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        """Stop the timer, then take the sample that closes the last stretch."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def sampling_s(self, start: float, end: float) -> float:
        """Time spent sampling inside [start, end]."""
        return sum(b - a for a, b, _ in self.samples if start <= a and b <= end)

    def _factor(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the median sample within WINDOW_S of the
        stretch [start, end], or over the nearest sample if none is."""
        refs = [r for a, b, r in self.samples if start - WINDOW_S <= a and b <= end + WINDOW_S]
        if not refs:
            refs = [min(self.samples, key=lambda s: abs(s[0] - end))[2]]
        return REF_NOMINAL_S / statistics.median(refs)

    def scaled(self, start: float, end: float) -> float:
        """[start, end] less the samples inside it, each stretch between two
        samples rescaled by its own factor."""
        total = 0.0
        cursor = start
        for a, b, _ in self.samples:
            if start <= a and b <= end:
                total += (a - cursor) * self._factor(cursor, a)
                cursor = b
        return total + (end - cursor) * self._factor(cursor, end)
