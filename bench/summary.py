"""Percentiles and spreads, as the harness reports them.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it (a p99 of 300 samples is three numbers, not a percentile),
and a spread is the distance between the first and third quartile as a
share of the median -- the same `statistics.quantiles(values, n=4)` rule
the acceptance driver applies to ten runs.
"""

import statistics

#: samples that must lie beyond a percentile for it to be reported
MIN_BEYOND = 10


def percentile(ordered, q):
    """Nearest-rank ``q`` (0..1) percentile of an ascending sequence."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def supported(count, q):
    """Do ``count`` samples leave :data:`MIN_BEYOND` beyond percentile ``q``?"""
    return count - int(q * count) - 1 >= MIN_BEYOND


def tail_percentile(values, q):
    """The ``q`` percentile of ``values``, or ``None`` when too few
    samples lie beyond it to call it a percentile."""
    if not supported(len(values), q):
        return None
    return percentile(sorted(values), q)


def spread(values):
    """``(q1, median, q3, spread)`` of at least two values, the spread
    being the inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0
