"""A fixed pure-Python workload that reads the machine's current speed.

On a shared virtual machine the speed of one CPU swings between levels
about 1.3-1.8x apart for seconds to tens of seconds at a time, and CPU
time swings with wall time, so neither can be read as the program's own
cost.  The benchmark therefore times this fixed piece of work next to
the program's work and scales every measured time by NOMINAL_S over the
probe's time: figures read as if taken on a machine on which `probe()`
takes NOMINAL_S.  The work is of the program's kind (a sparse product
of rational polynomials in dicts keyed by exponent tuples) but uses no
program code, so a change to the program does not move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Within the probe's range on a 2-CPU virtual machine with Python 3.11
# (6.5-13 ms); any fixed value would do, it only sets the scale.
NOMINAL_S = 0.008
# Readings are taken between stretches of work of at least this length.
EVERY_S = 0.5

_A = {(i, j): Fraction(i + 1, j + 2) for i in range(8) for j in range(8)}
_B = list(_A.items())[:36]


def _work() -> dict:
    out = {}
    for (i, j), x in _A.items():
        for (k, l), y in _B:
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + x * y
    return out


def probe() -> float:
    """Seconds taken by one pass of the fixed work."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def reading() -> float:
    """The machine's current speed: the median of three probes."""
    return statistics.median(probe() for _ in range(3))
