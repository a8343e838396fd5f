"""The benchmark's yardstick: a fixed loop that stands in for the machine's speed.

This module imports numpy and nothing of augbin, so a fresh interpreter can
run it around ``import augbin`` without counting augbin's import twice.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Wall time between two passes that a Sampler takes inside timed work.
SAMPLE_EVERY_S = 0.01
# One pass on this kind of box (2 cores, Python 3.11, numpy 2.4) outside
# its bursts of slowness.  ``setup_s`` is reported in seconds at this speed.
REFERENCE_PASS_S = 3e-4

_ROWS = np.ones((16, 32))


def passes(count: int) -> list[float]:
    """Seconds of each of ``count`` passes of a fixed loop of small numpy adds and int work.

    The loop never changes, so dividing augbin's times by its times cancels
    the shared machine's swings in raw speed (up to about 2x, in bursts of
    milliseconds to seconds), which slow this loop and augbin alike.
    """
    times = []
    for _ in range(count):
        x = np.zeros(32)
        acc = 0
        started = time.perf_counter_ns()
        for i in range(400):
            x += _ROWS[i & 15]
            acc += i * i
        times.append((time.perf_counter_ns() - started) / 1e9)
    return times


class Sampler:
    """Takes one pass every ``SAMPLE_EVERY_S`` of wall time while entered.

    A SIGALRM handler runs the pass inside whatever the process is doing,
    so the passes sample the machine's speed during that work, bursts and
    all.  The handler's own time is kept, so that callers can take it out
    of the work's time: ``spent_ns`` in total, and ``last``, the latest
    handler's (start, end) in ``time.perf_counter_ns``.
    """

    def __init__(self):
        self.passes: list[float] = []
        self.spent_ns = 0
        self.last = (0, 0)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter_ns()
        self.passes.extend(passes(1))
        ended = time.perf_counter_ns()
        self.spent_ns += ended - started
        self.last = (started, ended)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
