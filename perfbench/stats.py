"""Order statistics the benchmark reports.

Pure functions, no dependency on the program under test.
"""

from __future__ import annotations

import statistics


def tail(samples) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it.

    Nearest-rank: percentile ``p`` of ``n`` sorted samples is the one at
    rank ``ceil(p * n / 100)``, which leaves ``n - rank`` samples above
    it.  Ten of them are left at rank ``n - 10``, so the answer is the
    eleventh-largest sample, at ``p = 100 * (n - 10) / n``.  Returns
    ``(value, p, n)``, or ``None`` below eleven samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return None
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")
