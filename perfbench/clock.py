"""Reference-scaled time: op latencies on a fixed machine speed.

The benchmark runs on shared 2-CPU hosts whose speed swings by up to 2x,
both within a second and for tens of seconds at a time, so the same op on
the same input can take twice as long from one run to the next.  Every
timed interval is therefore bracketed by two runs of a fixed pure-Python
reference loop (Fraction arithmetic, like most of the package's work) and
reported as

    seconds * REFERENCE_S / (mean of the two reference times),

the time it would take on a machine that runs the reference loop in
REFERENCE_S.  The loop does not call the package, so a change to the
package moves the scaled time by the same factor as the raw time.
"""
from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 3e-3


def reference_seconds() -> float:
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(i % 7 + 1, i % 11 + 1)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from raw to reference-scaled seconds for an interval
    bracketed by reference times `before` and `after`."""
    return 2.0 * REFERENCE_S / (before + after)
