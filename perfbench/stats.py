"""Order statistics for op latencies.

A failed op counts as missing every latency limit, so callers record it
as ``math.inf``; it then lands at the top of the distribution.
"""

from __future__ import annotations

import math

# At least this many samples must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def quantile(samples: list, q: float) -> float:
    """The ``q`` quantile (0..1) by the nearest-rank rule."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(samples: list) -> float:
    return quantile(samples, 0.5)


def geomean(values: list) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(samples: list) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with at least
    :data:`TAIL_BEYOND` samples above its rank (``(n - 10) / n``).

    With too few samples for such a percentile at or above the median
    (the tests' small configuration) the tail is the maximum, reported as
    percentile 100.
    """
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return 100.0, max(samples)
    q = (n - TAIL_BEYOND) / n
    return 100.0 * q, quantile(samples, q)

