"""Host-speed calibration of measured times.

On a shared host the speed of this one process drifts by half or more
within a minute, and by tens of percent within a second, while its CPU
time tracks wall time; raw durations of the same work spread too widely to
compare two commits.  The benchmark therefore measures the host's speed
all through the timed loop with a fixed reference computation (exact
rational arithmetic and small allocations, like the library's hot paths,
but no chowstab code): after every request it runs a block of reference
units taking BLOCK_SHARE of that request's duration.

The blocks run only between requests, while the program is idle, so they
measure the host and not the program: a program that keeps CPUs busy
during a request (worker processes, say) neither speeds up nor slows down
the reference units.  A program that leaves work running between requests
would; the library at its defaults starts none.

Each duration d is then rescaled by the mean reference unit time u of the
blocks within max(HALO_S, d) of the request (at least the block after it
and the one before, which ends where the request starts; a long request
is measured against a stretch of blocks about as long as itself on each
side):

    calibrated = raw * NOMINAL_UNIT_S / u.

The result is the time the request would have taken on a host that runs
one reference unit in NOMINAL_UNIT_S.  The raw figures are kept in the
results record beside them.

Set-up time is measured in fresh interpreters, which the blocks cannot
see into; each one is paired with a fresh interpreter that imports a fixed
set of standard-library modules (REFERENCE_IMPORT), and the set-up time is
rescaled by NOMINAL_IMPORT_S over that import time.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from time import perf_counter

# Median time of one reference unit on a 2-vCPU x86-64 cloud host with
# CPython 3.11 at its quieter moments; fixed, so that calibrated values stay
# comparable between commits.
NOMINAL_UNIT_S = 1.2e-4

# Import time of REFERENCE_IMPORT on the same host at the same moments.
NOMINAL_IMPORT_S = 0.03

REFERENCE_IMPORT = """\
import time
t0 = time.perf_counter()
import argparse, concurrent.futures, dataclasses, fractions, json, re, typing, warnings
print(time.perf_counter() - t0)
"""

BLOCK_SHARE = 0.2
HALO_S = 0.05


def reference_unit() -> int:
    acc = Fraction(0)
    table = {}
    for i in range(1, 9):
        q = Fraction(i, i + 1) * Fraction(2 * i - 1, 3 * i + 2) - Fraction(1, i)
        acc += q
        table[i % 5] = (q.numerator, q.denominator)
    return acc.denominator + len(table)


class Calibration:
    """Blocks of reference units, kept as (start, end, units)."""

    def __init__(self):
        self.block_starts = array("d")
        self.block_ends = array("d")
        self.block_units = array("d")

    def block(self, seconds: float) -> None:
        """Run reference units for at least ``seconds`` (at least one unit)."""
        start = perf_counter()
        units = 0
        now = start
        while units == 0 or now - start < seconds:
            reference_unit()
            units += 1
            now = perf_counter()
        self.block_starts.append(start)
        self.block_ends.append(now)
        self.block_units.append(units)

    def factors(self, starts, ends) -> list[float]:
        """NOMINAL_UNIT_S / u for each (start, end) interval, u as above."""
        block_busy = [0.0, *accumulate(e - s for s, e in zip(self.block_starts, self.block_ends))]
        block_units = [0.0, *accumulate(self.block_units)]
        out = []
        for start, end in zip(starts, ends):
            halo = max(HALO_S, end - start)
            lo = bisect_left(self.block_ends, start - halo)
            hi = bisect_right(self.block_starts, end + halo)
            if hi <= lo:
                raise ValueError(f"no reference block within {halo} s of ({start}, {end})")
            unit = (block_busy[hi] - block_busy[lo]) / (block_units[hi] - block_units[lo])
            out.append(NOMINAL_UNIT_S / unit)
        return out
