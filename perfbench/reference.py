"""A fixed computation that measures how fast the host runs Python right now.

The benchmark shares a virtual machine with other tenants, and the speed
at which it runs Python code drifts by a third or more within seconds,
with CPU time following wall time.  Worker processes therefore run
`unit()` after their operations (outside the timed spans) and divide the
operations' times by how slowly the unit ran around them:

    speed = mean(unit times) / UNIT_S
    time at reference speed = measured time / speed

`UNIT_S` is a fixed constant near the unit's time on a shared 2-vCPU
virtual machine with Python 3.11.7.  Over forty 20 s runs there the units
ran at 0.67 to 1.05 times it, so reported times read about a tenth above
the measured medians.  The unit uses nothing of symcrys, so no change to
the program moves it.  It is pure interpreter work of the kinds symcrys does: small
dicts keyed by ints with Fraction values, tuples, sets and recursion.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

UNIT_S = 0.0060


def unit():
    a = {0: Fraction(1), 1: Fraction(2, 3), 3: Fraction(-1, 5)}
    acc = {}
    for k in range(100):
        b = {k % 5: Fraction(k, 7), 2: Fraction(1, k + 1)}
        prod = {}
        for i, x in a.items():
            for j, y in b.items():
                prod[i + j] = prod.get(i + j, 0) + x * y
        for e, c in prod.items():
            acc[e % 11] = acc.get(e % 11, 0) + c
    seen = set()

    def rec(left, parts):
        if left == 0:
            seen.add(tuple(sorted(parts)))
            return
        for p in range(1, min(left, 6) + 1):
            parts.append(p)
            rec(left - p, parts)
            parts.pop()

    rec(11, [])
    return len(acc) + len(seen)


def timed_unit():
    """Seconds one unit takes, with the cyclic collector held off.

    The unit frees everything it allocates by reference counting, so
    holding the collector off keeps a collection of the workload's heap
    from landing inside the unit's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        unit()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
