"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics

#: A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Nearest-rank: the value of rank ``k = n - TAIL_BEYOND`` (1-based) in the
    sorted samples is the ``100 k / n``-th percentile and has exactly
    ``TAIL_BEYOND`` samples above it.  Returns ``(value, percentile, n)``.
    """
    n = len(samples)
    k = n - TAIL_BEYOND
    if k < 1:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    return sorted(samples)[k - 1], 100.0 * k / n, n


def relative_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
