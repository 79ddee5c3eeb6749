"""A yardstick for the speed of a shared machine.

On the 2-vCPU Xeon virtual machine this benchmark was tuned on, CPU speed
drifted by up to 1.7x over tens of seconds, independently on each vCPU, and
raw timings of the same pass spread by 16-26% between runs.  The yardstick
is a fixed block of interpreter work, timed on the same thread as the work
it measures.  A time divided by the mean block time taken over the same
interval is a time in blocks, which cancels the drift (measured spread
between runs: 3-4%).  Times in blocks are reported as nominal seconds,
blocks x NOMINAL_BLOCK_S, about the block's time on that machine.
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL_BLOCK_S = 350e-6

_STEPS = tuple(range(64)) * 16


def block() -> int:
    """The fixed work: interpreter dispatch on small cached ints, no allocation."""
    acc = 0
    for _ in range(8):
        for x in _STEPS:
            acc = _STEPS[(acc + x) & 1023]
    return acc


def block_seconds(count: int) -> float:
    """Mean time of `count` blocks run back to back."""
    start = time.perf_counter()
    for _ in range(count):
        block()
    return (time.perf_counter() - start) / count


class Sampler:
    """Times one block every PERIOD_S on a timer signal, while active.

    The blocks run inside the measured work, so `spent_s` keeps their total
    for the caller to take off.  A few blocks are timed on entry, so even a
    very short interval has samples.
    """

    PERIOD_S = 0.01
    ON_ENTRY = 10

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        block()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent_s += took

    def mean_block_s(self, start: int = 0, end: int | None = None) -> float:
        return statistics.fmean(self.samples[start:end])

    def __enter__(self):
        for _ in range(self.ON_ENTRY):
            self._tick()
        self.spent_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
