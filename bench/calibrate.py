"""A fixed piece of pure-Python work that gauges how fast the machine runs right now.

On a shared machine the speed of a vCPU drifts, by up to 1.8x over minutes
on the machine the benchmark was written on, so raw times of identical runs
spread by 30 %.  Each round runs this work before its first request, after
every ``EVERY_S`` seconds of requests and after its last request, and the
round's times are scaled to the speed at which the work takes
``REFERENCE_S``.  The work imports nothing from corelab and never changes
with it, so a change to corelab moves a scaled time as it moves the raw one.
Its mix resembles corelab's; it keeps under 1 MB alive, below the peak
resident set of any workload.
"""

import time
from fractions import Fraction

REFERENCE_S = 0.4
EVERY_S = 2.5


def work() -> int:
    """Fractions, tuples, sorting and a dict, in chunks, so it adds little memory."""
    total = Fraction(0)
    index: dict = {}
    for a in range(36):
        chunk = sorted(
            (Fraction(a, 3), Fraction(b - a, 4), Fraction(c, 5))
            for b in range(36)
            for c in range(10)
        )
        total += sum(x * x - x * y + y * y - y * z + z * z for x, y, z in chunk)
        index.update((p, i) for i, p in enumerate(chunk))
        if len(index) > 2000:
            index.clear()
    return len(index) + total.denominator


def seconds() -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
