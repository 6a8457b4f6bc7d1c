"""The host's current speed, from a fixed pure-Python calibration loop.

The benchmark's host is shared: its speed drifts by up to a factor of
two over tens of seconds, and every pure-Python workload slows with it
(on five seeds of the compile workload, the spread of the median op
latency was 55% raw and 10% rescaled).  Each round of timed work is
bracketed by
:func:`calibrate`, and its times are rescaled to the host speed at which
the loop takes :data:`REFERENCE_S` (:func:`scale`).  The loop does what
the interpreter does most: calls through closures, list indexing, dict
stores and integer arithmetic.  It uses nothing from the repository, so
a change to the program under test cannot move it.
"""

from __future__ import annotations

import time

# seconds calibrate() takes on the 2-core x86 host the benchmark was
# defined on, in its faster spells
REFERENCE_S = 0.006


def _work(n: int) -> int:
    ops = (lambda a, b: a + b, lambda a, b: a * b % 65521, lambda a, b: a ^ b)
    table = [0] * 256
    env: dict = {}
    acc = 1
    for i in range(n):
        acc = ops[i % 3](acc, i) & 0xFFFF
        table[acc & 255] += 1
        env[i & 1023] = acc
    return acc


def calibrate() -> float:
    """Wall seconds of the fixed calibration loop, now."""
    start = time.perf_counter()
    _work(25000)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor taking times measured between two calibrations to the
    reference speed.  An interruption only slows a calibration, so the
    faster of the two is the better estimate."""
    return REFERENCE_S / min(before, after)


class Bracket:
    """``with Bracket() as b:`` calibrates before and after the block;
    ``b.factor`` is then its :func:`scale`."""

    factor = 1.0

    def __enter__(self) -> "Bracket":
        self._before = calibrate()
        return self

    def __exit__(self, *exc) -> bool:
        self.factor = scale(self._before, calibrate())
        return False
