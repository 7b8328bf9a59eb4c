"""Summary statistics for BenchKit results.

Quartiles follow Python's ``statistics.quantiles(values, n=4)`` (the
"exclusive" method), so a spread computed here matches one computed from
the same values anywhere else with the standard library.
"""

import statistics


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(first quartile, median, third quartile) of a non-empty sequence.

    One value is its own quartiles; from two values on this is
    ``statistics.quantiles(values, n=4)``.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values):
    """Interquartile range as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail_percentile(values, beyond=10):
    """The highest percentile that has at least ``beyond`` samples above it.

    Returns ``(percentile, value)``: the sample with exactly ``beyond``
    samples after it in sorted order, and the share of samples at or
    below it, in percent. Returns ``None`` when there are not more than
    ``beyond`` samples, because then no percentile has that many beyond it.
    """
    n = len(values)
    if n <= beyond:
        return None
    k = n - beyond - 1
    return (100.0 * (k + 1) / n, sorted(values)[k])

