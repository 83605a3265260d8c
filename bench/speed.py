"""Host speed checkpoints: timings of a fixed kernel taken around timed calls.

The shared host's speed swings by up to 1.7x in phases lasting seconds, and
drifts over minutes; every part of a run slows alike, so no statistic over a
run's own timings removes it.  So the benchmark times a fixed kernel on the
same core right before and right after each timed unit (an evaluate round,
a sample call, a verify battery, a set-up probe), and every TIMER_PERIOD_S
inside the timed work, from a timer signal in the thread that does it.
A timing, less the kernels run inside it, is divided by the median kernel
time of the checkpoints around and inside it and multiplied by KERNEL_REF_S,
which gives the seconds it would have taken with the host at its reference
speed.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

# the kernel's typical time on the 2-vCPU reference host
KERNEL_REF_S = 0.0025
# checkpoints inside a long call: often enough to follow phases of seconds,
# rarely enough to cost 0.5 % of the call
TIMER_PERIOD_S = 0.5

_X = np.random.default_rng(0).random(20_000)


def kernel() -> float:
    """Seconds of a fixed mix of interpreted and numpy work, as ighit does."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(20):
        np.exp(_X).sum()
    return time.perf_counter() - start


class Checkpoints:
    """One run's kernel timings, and the scaling of its timings by them."""

    def __init__(self):
        # (perf_counter at the kernel's middle, kernel seconds), in time order
        self.points = []

    def take(self) -> None:
        """Time the kernel now and record it."""
        start = time.perf_counter()
        seconds = kernel()
        self.add([(start + seconds / 2.0, seconds)])

    def add(self, points) -> None:
        """Record checkpoints, such as those a child process took."""
        for point in points:
            bisect.insort(self.points, tuple(point))

    @contextlib.contextmanager
    def timer(self):
        """Take a checkpoint every TIMER_PERIOD_S, in this thread, while inside."""
        previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: self.take())
        signal.setitimer(signal.ITIMER_REAL, TIMER_PERIOD_S, TIMER_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def normalised(self, spans) -> float:
        """Total seconds of (start, seconds) spans, at the reference speed.

        Each span, less the kernels run inside it, is scaled by the median
        kernel time of the last checkpoint before it, those inside it and the
        first after it; with no checkpoint inside, that is the mean of the two
        around.
        """
        stamps = [stamp for stamp, _ in self.points]
        total = 0.0
        for start, seconds in spans:
            before = max(bisect.bisect_right(stamps, start) - 1, 0)
            after = min(bisect.bisect_left(stamps, start + seconds), len(stamps) - 1)
            kernels = [kernel_s for _, kernel_s in self.points[before:after + 1]]
            inside = sum(kernels[1:-1])
            total += (seconds - inside) * KERNEL_REF_S / statistics.median(kernels)
        return total
