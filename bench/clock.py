"""Wall-clock timing corrected for the speed of a shared CPU.

On the 2-vCPU Intel Xeon VM where this benchmark was defined, one fixed
loop took between 1.6 ms and 3.2 ms from one second to the next, in slow
and fast spells that each last seconds.  No statistic taken inside one
30-second run removes a spell that covers most of it.

So every operation is bracketed by samples of a fixed calibration loop, a
mix of interpreter work and small numpy calls like the program's own.  An
operation's time is scaled by ``REFERENCE_MS / c``, where ``c`` is the mean
of the samples just before and just after it.  The result is the
operation's wall time at the reference speed of the calibration loop.  The
raw wall times are reported next to the scaled ones.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# Best time of one calibration sample on the machine that defined the
# benchmark (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_MS = 1.6
SAMPLE_GAP_S = 0.05


def _loop():
    a = np.eye(4)
    acc = 0.0
    for i in range(300):
        x = (i % 7) * 0.1
        acc += sum(c * x ** e for e, c in ((1, 0.5), (2, 0.25), (3, 0.125)))
        a = np.tanh(a @ a * 0.1) + np.eye(4)
    return acc


def sample_ms():
    """Best of three timings of the calibration loop, in ms."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


class SpeedTrack:
    """Calibration samples taken between operations, at most every 50 ms."""

    def __init__(self):
        sample_ms()  # the first run pays for warming the loop
        self.times = []
        self.values = []

    def sample(self):
        value = sample_ms()
        self.times.append(time.perf_counter())
        self.values.append(value)

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_GAP_S:
            self.sample()

    def factor(self, start, end):
        """REFERENCE_MS / mean of the samples bracketing [start, end]."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        near = [self.values[i] for i in (before, after) if 0 <= i < len(self.values)]
        return REFERENCE_MS / (sum(near) / len(near))
