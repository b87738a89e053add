"""Host-speed sampling, so that timings survive a shared, drifting CPU.

On the shared 2-core host this benchmark was built on, the same code ran
up to twice as slow from one minute to the next, and the slow and fast
phases last seconds, about as long as one repeat of a workload.  A
background thread therefore times a tiny fixed kernel every
``PERIOD_S`` in its own thread CPU time (so waiting for the GIL does not
count), and a timing is divided by the mean kernel time over the same
interval.  ``KERNEL_NOMINAL_S`` turns the ratio back into seconds at the
host's typical speed.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.1
# Median kernel time on the 2-core Xeon host of the README baseline.
KERNEL_NOMINAL_S = 0.0015

_X = np.linspace(0.0, 1.0, 401)
_COEF = np.array([0.5, -1.0, 2.0, 0.25])


def _kernel():
    """Numpy calls on small arrays and a plain Python loop, as the workloads."""
    for _ in range(40):
        np.polynomial.polynomial.polyval(_X, _COEF)
    acc = 0.0
    for i in range(15_000):
        acc += (i % 7) * 0.5
    return acc


class SpeedSampler:
    """Background thread recording (time, kernel CPU seconds) samples."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="speed-sampler")

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5.0)
        if self._thread.is_alive():
            raise RuntimeError("speed sampler did not stop")

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            t0 = time.thread_time()
            _kernel()
            self.samples.append((time.perf_counter(), time.thread_time() - t0))

    def kernel_seconds(self, start, end):
        """Mean kernel time over ``[start, end]``, or of the last samples."""
        inside = [s for t, s in self.samples if start <= t <= end]
        while not inside:
            if not self._thread.is_alive():
                raise RuntimeError("speed sampler is not running")
            time.sleep(PERIOD_S)
            inside = [s for _, s in self.samples[-3:]]
        return statistics.fmean(inside)

    def timed(self, fn, *args):
        """Run ``fn``; return (wall seconds, kernel seconds meanwhile, result)."""
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        return t1 - t0, self.kernel_seconds(t0, t1), out


def nominal(seconds, kernel_seconds):
    """A timing rescaled to the host's typical speed, in seconds."""
    return seconds / kernel_seconds * KERNEL_NOMINAL_S
