"""Host speed, sampled while the benchmark runs, and times adjusted for it.

On a shared virtual machine the same code can run up to 2x slower for
seconds and a third slower for minutes (see DESIGN.md), and the
process's CPU time moves with its wall time: the host runs the same
instructions slower rather than taking the CPU away.  A ``Sampler`` therefore times a fixed
reference kernel every ``INTERVAL`` seconds, from a SIGALRM handler in
the benchmark's own thread, for as long as it is running.  The kernel is
the benchmark's own code, never the package's: products of an 8x8
matrix over Z/5^8 in plain Python integers, the kind of work the package
does.

``Sampler.adjust(t0, t1)`` turns a measured interval into reference
seconds: the interval minus the kernel time spent inside it, scaled by
``REFERENCE_KERNEL_S`` over the median kernel time around the interval.
A reference second is a second on a host that runs the kernel in
exactly ``REFERENCE_KERNEL_S``.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from random import Random

from workloads import mat_mul

INTERVAL = 0.05  # seconds between kernel samples
WINDOW = 0.25  # samples this far outside an interval also count for it
REFERENCE_KERNEL_S = 0.001

_MODULUS = 5**8
_rng = Random(0)
_MATRIX = [[_rng.randrange(_MODULUS) for _ in range(8)] for _ in range(8)]


def kernel() -> None:
    """The reference work: eight 8x8 matrix products mod 5^8."""
    for _ in range(8):
        mat_mul(_MATRIX, _MATRIX, _MODULUS)


class Sampler:
    """Kernel samples taken every ``INTERVAL`` seconds between ``start``
    and ``stop``; use as a context manager."""

    def __init__(self):
        self.starts = array("d")
        self.seconds = array("d")
        self._busy = False
        self._previous = None

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def adjust(self, t0: float, t1: float) -> float:
        """Reference seconds for the interval [t0, t1]."""
        inside = slice(bisect_left(self.starts, t0), bisect_right(self.starts, t1))
        raw = t1 - t0 - sum(self.seconds[inside])
        around = slice(bisect_left(self.starts, t0 - WINDOW), bisect_right(self.starts, t1 + WINDOW))
        nearby = self.seconds[around]
        if not nearby:
            raise RuntimeError("no host speed sample near a timed interval")
        return raw * REFERENCE_KERNEL_S / statistics.median(nearby)

    def kernel_median(self) -> float:
        return statistics.median(self.seconds)
