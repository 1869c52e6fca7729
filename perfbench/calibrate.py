"""Host-speed calibration for timings taken on a shared machine.

On a host shared with other tenants the speed of pure-Python code drifts by
up to 2x over tens of seconds, far more than the changes the benchmark must
resolve.  So every timing is taken next to a fixed unit of exact-rational
work that does not touch the engine (Gauss-Jordan elimination of a constant
rational matrix, the same kind of arithmetic as the engine's LP pivots), and
is rescaled to the speed at which that unit takes `NOMINAL_S`:

    normalised = measured * NOMINAL_S / mean kernel time before and after

A change to the engine moves the measured time but not the kernel's, so it
shows in full; a change in host speed moves both and cancels.
"""

from __future__ import annotations

import time
from fractions import Fraction

# A typical kernel time on the host the baseline was measured on (2.1 GHz Xeon
# KVM guest, Python 3.11.7), so normalised seconds stay close to its wall
# seconds.  Changing it rescales every recorded timing.
NOMINAL_S = 0.0025

_MATRIX = [[Fraction((3 * i + 5 * j) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(9)]
           for i in range(8)]


def _kernel() -> Fraction:
    rows = [list(r) for r in _MATRIX]
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        head[:] = [a / head[col] for a in head]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                factor = row[col]
                rows[r] = [a - factor * b for a, b in zip(row, head)]
    return rows[-1][-1]


def kernel_seconds() -> float:
    """Fastest of three kernel runs: interrupts only ever add time."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class HostSpeed:
    """Normalises timings by the kernel measured around them.

    The kernel is re-measured after a timing only when `every` seconds have
    passed since the last measurement, so short analyses share one.
    """

    def __init__(self, every: float = 0.2):
        self.every = every
        self.kernel = kernel_seconds()
        self.taken = time.perf_counter()

    def normalise(self, seconds: float) -> float:
        """Call right after the timing ends."""
        before = self.kernel
        if time.perf_counter() - self.taken >= self.every:
            self.kernel = kernel_seconds()
            self.taken = time.perf_counter()
        return seconds * NOMINAL_S * 2 / (before + self.kernel)
