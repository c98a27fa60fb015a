"""The benchmark's own reference computation.

A fixed amount of pure-Python work of the same kind entwit does: exact
``Fraction`` sums and integer quadratic minimisation.  It takes no input, so
it does the same work on every call whatever the seed.  One *reference* is
REPEATS calls.  Timed just before, during and just after an operation it
gives a unit that follows the machine's speed while the operation ran;
dividing the operation's wall time by it removes most of the drift of a
shared machine.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

FRACTION_TERMS = 1800
QUADRATICS = 12000
REPEATS = 8  # calls of reference_work() in one reference
SAMPLE_INTERVAL_S = 0.1
# the checksum reference_work() must return; a different value means the
# work itself changed and earlier reference units no longer compare
CHECKSUM = 21015921


def reference_work() -> int:
    acc = Fraction(0)
    for i in range(1, FRACTION_TERMS + 1):
        acc += Fraction(i % 7 - 3, i * i + 1)
        if i % 30 == 0:
            # fold the sum back to small terms so every call costs the same
            acc = Fraction(acc.numerator % 1_000_003, acc.denominator % 997 + 1)
    total = acc.numerator * 31 + acc.denominator
    for a in range(1, QUADRATICS + 1):
        b = (a * 7919) % 1009 - 504
        c = (a * 104729) % 2003
        quo, rem = divmod(-b, a)
        v = quo + (2 * rem > a)
        total += a * v * v + 2 * b * v + c
    return total % 2_147_483_647


def timed_call() -> tuple:
    """Wall and CPU seconds of one call of the reference work."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    checksum = reference_work()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if checksum != CHECKSUM:
        raise RuntimeError(f"reference work returned {checksum}, not {CHECKSUM}")
    return wall, cpu


class Sampler:
    """Times one call of the reference work every SAMPLE_INTERVAL_S seconds
    while an operation runs, from a SIGALRM handler in the main thread.

    The machine's speed changes while an operation runs; calls timed only
    at its two ends miss that.  ``walls`` and ``cpus`` hold
    the samples of the last ``with`` block, so the caller can take their
    time back out of the operation's.
    """

    def __init__(self):
        self.walls, self.cpus = [], []
        self._active = self._enabled = False
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        if not self._active:  # a signal still pending after __exit__
            return
        wall, cpu = timed_call()
        self.walls.append(wall)
        self.cpus.append(cpu)

    def __call__(self, enabled: bool):
        """Arm the sampler for the next ``with`` block, or leave it idle."""
        self._enabled = enabled
        return self

    def __enter__(self):
        self.walls, self.cpus = [], []
        if self._enabled:
            self._active = True
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
