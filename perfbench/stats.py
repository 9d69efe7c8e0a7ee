"""Summary statistics used by the benchmark: medians and tail percentiles.

Percentiles use the nearest-rank rule, so every reported value is one that
was actually measured. A percentile is only trusted when at least
``MIN_TAIL`` samples lie beyond it.
"""

from __future__ import annotations

import math
import statistics

MIN_TAIL = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def nearest_rank(values, q: float) -> float:
    """The ``q``-th percentile (0 < q <= 100) by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return float(ordered[rank - 1])


def tail_count(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100 * n))


def samples_needed(q: float, min_tail: int = MIN_TAIL) -> int:
    """Smallest sample count that leaves ``min_tail`` samples beyond ``q``."""
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    n = 1
    while tail_count(n, q) < min_tail:
        n += 1
    return n

