"""Machine-speed calibration.

Reported times are reference seconds: a measured time divided by the
slowness of the machine around it.  Slowness is the time of a fixed
pure-Python kernel over REFERENCE_S, so 1 at the reference speed and 2
when the machine runs at half of it.  On a shared virtual machine raw speed
drifts by up to 2x within minutes, and the kernel follows that drift
(spec.json gives the figures), so reference seconds compare across runs
where raw seconds do not.

Slowness is sampled just before and just after each operation, and,
for long operations, during it: InOperation runs the kernel from a
SIGALRM handler every SAMPLE_INTERVAL_S and records how long the
samples took, so the caller can take that time out of the operation's.
On a 2.5 s operation the in-operation samples cut the spread of the
normalized time from about 15% to about 5% (spec.json).

The kernel uses only the standard library, so no change to logbg can
make it faster or slower.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# About the kernel's time on a quiet 2-core x86-64 virtual machine under
# CPython 3.11; fixed, so reference seconds are comparable over time.
REFERENCE_S = 0.003
SAMPLE_INTERVAL_S = 0.1


def _kernel() -> int:
    """Fraction arithmetic and small tuples in a dict, as in logbg."""
    acc, table = Fraction(0), {}
    for i in range(1, 300):
        x = Fraction(i, i + 7) * Fraction(3, i + 1) + acc / 5
        acc = x - Fraction(1, i + 2)
        table[(i, x.denominator % 97)] = (x, i)
    return len(table)


def slowness() -> float:
    """Median of three kernel times over REFERENCE_S."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REFERENCE_S


class InOperation:
    """While active, SIGALRM every SAMPLE_INTERVAL_S runs the kernel once
    in the main thread.  `samples` holds each sample's slowness and
    `spent` the seconds all samples took."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed / REFERENCE_S)
        self.spent += elapsed

    def __enter__(self) -> "InOperation":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
