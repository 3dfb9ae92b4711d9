"""Machine-speed calibration for the benchmark's timings.

This benchmark runs on shared two-core hosts whose speed changes by up to 2x
within seconds: a fixed pure-Python loop took 6 to 25 ms within one minute
while /proc/stat counted no CPU steal. Medians over rounds cannot remove a
drift that lasts longer than a run, so every timed call is measured with a
`Meter`: it times a fixed loop right before and right after the call and, from
a SIGALRM handler, every SAMPLE_S seconds during it. The call's time divided
by the median loop time and multiplied by REFERENCE_S is its time at the
reference speed: the speed at which the loop takes REFERENCE_S seconds.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.009
SAMPLE_S = 0.2
REPEATS = 3


def _work() -> int:
    """Fraction, big-integer, dict and sort work, the mix the library does."""
    acc = Fraction(0)
    seen: dict[tuple[int, int], int] = {}
    for i in range(1, 1200):
        f = Fraction(i * 7919 % 1009, i % 13 + 1)
        acc += f * f
        key = (i % 61, i % 53)
        seen[key] = seen.get(key, 0) + acc.denominator % 97
    return len(sorted(seen.items(), key=lambda kv: (kv[1], kv[0])))


def loop_seconds(repeats: int = REPEATS) -> float:
    """Median time of the calibration loop right now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference(seconds: float, loop: float) -> float:
    """``seconds`` measured while the loop took ``loop``, at the reference speed."""
    return seconds * REFERENCE_S / loop


class Meter:
    """Context manager timing one call and the machine's speed around it.

    After exit, ``elapsed`` is the call's wall-clock time without the samples
    taken inside it, and ``scaled`` that time at the reference speed.
    """

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _work()
        self._inside.append(time.perf_counter() - start)

    def __enter__(self) -> "Meter":
        self._before = loop_seconds()
        self._inside: list[float] = []
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.elapsed = wall - sum(self._inside)
        loop = statistics.median([self._before, *self._inside, loop_seconds()])
        self.scaled = at_reference(self.elapsed, loop)
