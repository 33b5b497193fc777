"""Machine-speed calibration: the benchmark's times are scaled to a
reference speed.

On a host shared with other tenants the speed of a core drifts by a
quarter or more over tens of seconds.  So the benchmark runs a small
fixed kernel at short intervals, outside the timed regions, and divides
each timed stretch by the kernel's current slowdown: the median of its
most recent samples over the kernel's nominal time.  A time reported in
seconds is therefore in reference seconds, the time the same work takes
when the kernel runs in its nominal time.  A change to qflab moves these
times exactly as it moves raw ones; only the host's drift is taken out.

Interpreted work and memory-bound numpy work slow down by different
amounts, so there are two kernels, and each workload uses the one that
tracks it (README.md gives the measurements).
"""

from __future__ import annotations

import statistics
from array import array
from collections import deque
from time import perf_counter

import numpy as np

WINDOW = 3          # samples in the running median
EVERY_S = 0.02      # timed work between calibrations


def interpreter_kernel():
    """Interpreted integer arithmetic and a small in-cache convolution."""
    vec = np.arange(1, 1001, dtype=np.int64)

    def run():
        s = 0
        for i in range(6000):
            s += i * i % 7
        return s + int(np.convolve(vec, vec)[999])
    return run


def memory_kernel():
    """Shifted multiply-adds over arrays of 300,000 int64 values, the
    inner steps of qflab's truncated products of theta halves.  It
    allocates nothing, so its speed does not depend on what the program
    did to the allocator."""
    n = 300_000
    a = np.arange(n, dtype=np.int64)
    tmp = np.empty(n, dtype=np.int64)
    out = np.empty(n + 9, dtype=np.int64)

    def run():
        out.fill(0)
        for shift in (1, 5, 9):
            np.multiply(a, shift, out=tmp)
            np.add(out[shift:shift + n], tmp, out=out[shift:shift + n])
        return int(out[9])
    return run


# kernel factory, and about the kernel's fastest time on a 2.1 GHz Xeon
# core (Python 3.11)
KERNELS = {"interpreter": (interpreter_kernel, 1.0e-3),
           "memory": (memory_kernel, 1.4e-3)}


class Speed:
    """The current slowdown of the host relative to the reference, as
    one kernel measures it."""

    def __init__(self, kernel: str = "interpreter"):
        factory, self.nominal_s = KERNELS[kernel]
        self.kernel = factory()
        for _ in range(3):
            self.kernel()
        self.recent = deque(maxlen=WINDOW)
        self.log = array("d")
        self.measure(WINDOW)

    def measure(self, n: int) -> None:
        for _ in range(n):
            t = perf_counter()
            self.kernel()
            s = perf_counter() - t
            self.recent.append(s)
            self.log.append(s)
        self.factor = statistics.median(self.recent) / self.nominal_s
