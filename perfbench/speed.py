"""CPU speed sampling, to report a job's times in reference seconds.

The vCPUs this benchmark was tuned on switch between an uncontended and a
contended speed about 2x apart, in spells from under a second to minutes, so
raw seconds of the same code spread more than any useful bound. A job
therefore samples the speed of its own CPU while it runs: a wall-clock timer
signal runs a fixed chunk of numpy work (no otafl code) every INTERVAL_S and
times it. Over a phase of the job, CAL_REF_S times the mean of 1 / chunk time
is the reference seconds per measured second: measured seconds times this
scale are the seconds the phase would take on a core that ran one chunk in
CAL_REF_S throughout.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Reference speed: one chunk in 0.5 ms. The 2.1 GHz Xeon vCPU the benchmark
# was tuned on runs it in about 0.4 ms uncontended and 0.8 ms contended.
CAL_REF_S = 5e-4
INTERVAL_S = 0.05  # sampling costs about 1% of the job's time

_rng = np.random.default_rng(0)
_ROWS = _rng.standard_normal((200, 20))  # small steps, like the local-SGD kernel
_DATA = _rng.standard_normal((1000, 20))  # a matvec, like the gap evaluation


def chunk() -> float:
    """A fixed piece of work shaped like a round: small numpy steps, then a matvec."""
    theta = np.zeros(20)
    for row in _ROWS:
        theta -= 1e-3 * (row @ theta - 1.0) * row
    residual = _DATA @ theta - 1.0
    return float(residual @ residual)


class SpeedSampler:
    """Times chunk() from SIGALRM every INTERVAL_S between start() and stop()."""

    def __init__(self):
        self.samples: list[tuple[int, int]] = []  # (start_ns, duration_ns)
        self._previous = None

    def _sample(self, *_) -> None:
        start = time.monotonic_ns()
        chunk()
        self.samples.append((start, time.monotonic_ns() - start))

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scale(self, windows=None) -> float:
        """Reference seconds per measured second over samples starting inside `windows`.

        `windows` is a list of (start_ns, end_ns); None, or windows that hold
        no sample, take every sample.
        """
        inside = [d for s, d in self.samples if windows and any(a <= s < b for a, b in windows)]
        durations = inside or [d for _, d in self.samples]
        return CAL_REF_S * sum(1e9 / d for d in durations) / len(durations)
