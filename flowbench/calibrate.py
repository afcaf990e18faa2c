"""Host-speed calibration for the timed loop.

On a shared host the same interpreter work runs 15-40% faster or slower
from one second to the next, as neighbours come and go on the same cores
and caches; process CPU time stretches with it, so CPU time does not help.
The runner therefore times a fixed pure-Python loop between short windows
of ops and scales each window's times by ``REFERENCE_S / calibration``:
every time the benchmark reports is in *reference seconds*, the time the
op would take on a host that runs the calibration loop in ``REFERENCE_S``.

The loop uses no labelflow code, so a change to the program moves the op
times and not the calibration. It does the kinds of work the program does
(calls, attribute access, small tuples and lists, dict lookups, a branch),
so both slow down together, and it runs with the garbage collector off, so
the program's heap and collector settings do not change its time.
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_S = 0.004  # calibration time at the reference speed
ITERATIONS = 4000


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _order(x, y):
    return (x, y) if x < y else (y, x)


def _loop(n: int) -> int:
    counts: dict = {}
    acc = 0
    for i in range(n):
        key = ("k", i & 63)
        counts[key] = counts.get(key, 0) + 1
        p = _Pair(i, key)
        t = _order(p.a, i ^ 5)
        acc += len(t) + (1 if isinstance(p.b, tuple) else 0)
        acc += [j for j in t][0] & 3
    return acc


def calibration_s() -> float:
    """Wall time of one pass of the calibration loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _loop(ITERATIONS)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
