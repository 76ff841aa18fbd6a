"""A fixed reference kernel that measures how fast the host runs now.

On a shared host the same operation's wall time moves 25-50% with the
host's speed state, and its CPU time moves with it, so no clock of the
benchmark's own process is free of it.  The benchmark therefore times
a fixed kernel, which no program change can alter, next to every
operation, and reports host times scaled to a reference speed:

    scaled = measured * REF_PROBE_S / probe time measured next to it

The kernel mixes the three kinds of work the planning operations do:
interpreted Python over dicts and lists, small NumPy array updates and
small HiGHS LPs through SciPy.  A regression in the program moves the
measured time and not the probe, so it shows in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog

#: Probe time, in seconds, that scaled times are scaled to: about the
#: median :func:`probe` time on the 2-core Xeon host the benchmark was
#: written on.
REF_PROBE_S = 0.040

_RNG = np.random.default_rng(12345)
_LP_A = _RNG.random((40, 60))
_LP_B = _RNG.random(40) + 1.0
_LP_C = -_RNG.random(60)
_VEC = _RNG.random(2000)


def _python() -> int:
    table: dict = {}
    total = 0
    for i in range(60000):
        key = i % 997
        table[key] = table.get(key, 0) + i
        total += i & 7
    return total + len(table)


def _numpy() -> float:
    x = _VEC
    for _ in range(600):
        x = np.minimum(x * 1.0001, 0.9) + _VEC[::-1] * 1e-6
    return float(x.sum())


def _lp() -> float:
    total = 0.0
    for _ in range(5):
        total += linprog(
            _LP_C, A_ub=_LP_A, b_ub=_LP_B, bounds=(0, 1), method="highs"
        ).fun
    return total


def _kernel() -> float:
    start = time.perf_counter()
    _python()
    _numpy()
    _lp()
    return time.perf_counter() - start


def probe() -> float:
    """Seconds the reference kernel takes right now: the median of three
    runs of about 40 ms each, so one preempted run does not skew it."""
    return statistics.median(_kernel() for _ in range(3))
