"""A fixed reference computation that times the host rather than bwrum.

The benchmark runs on a shared virtual machine whose speed drifts by
tens of percent from one second to the next, with the load on the
rest of the host.  The yardstick is timed right before and right after
each operation; dividing the operation's CPU time by the mean of the
two readings cancels most of that drift.  A *normalised* time is the
operation's CPU time scaled to a machine on which the yardstick takes
exactly ``REFERENCE_S``.  That is about the yardstick's time on a
2-core x86_64 virtual machine with Python 3.11, so normalised and plain
times read alike there.

The yardstick shares no code with bwrum.  It is an exact sum of
fractions, the arithmetic bwrum spends its time in, and it runs with
the garbage collector off, so that whatever bwrum leaves on the heap
cannot change its cost.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import process_time

TERMS = 200
REFERENCE_S = 0.001  # the yardstick's CPU time on the reference machine


def measure() -> float:
    """CPU seconds of one yardstick run."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = process_time()
        total = Fraction(0)
        for i in range(1, TERMS):
            total += Fraction(i, i * i + 7)
        return process_time() - start
    finally:
        if enabled:
            gc.enable()


class Normaliser:
    """Yardstick readings between consecutive operations.

    Call it right after each operation with that operation's CPU
    seconds; it returns the normalised seconds, using the reading taken
    after the previous operation (or at creation) and a fresh one.
    """

    def __init__(self) -> None:
        self.before = measure()

    def __call__(self, cpu: float) -> float:
        after = measure()
        scaled = cpu * REFERENCE_S * 2 / (self.before + after)
        self.before = after
        return scaled
