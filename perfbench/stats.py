"""Order statistics the benchmark reports.

One definition each, shared by the timed passes, the traced pass and the
steadiness command:

* :func:`median` — the middle sample, or the mean of the two middle ones;
* :func:`tail` — the sample at the highest percentile that still has at
  least ten samples above it, with the percentile and the number of
  samples beyond it.  It is read on the per-point times (each point's
  median over the timed passes), so the percentile does not depend on
  how many passes fit in the budget;
* :func:`quartiles` / :func:`spread` — ``statistics.quantiles(n=4)``
  (the "exclusive" method) and the interquartile distance as a share of
  the median;
* :func:`deciles` — ``statistics.quantiles(n=10)``, for the model/DES
  ratio readings.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["TAIL_BEYOND", "Tail", "median", "tail", "quartiles", "spread", "deciles"]

#: Samples that must lie strictly above the reported tail value.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


@dataclass(frozen=True)
class Tail:
    """One tail reading: ``value`` is the sample at ``percentile`` of
    ``count`` samples, with ``beyond`` samples ranked above it."""

    value: float
    percentile: float
    count: int
    beyond: int


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """The highest-percentile sample with ``beyond`` samples above it.

    With ``n`` samples sorted ascending, that is the sample of rank
    ``n - beyond`` (1-based), i.e. percentile ``100 * (n - beyond) / n``.
    Needs at least ``beyond + 1`` samples.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"a tail with {beyond} samples beyond needs more than {beyond} samples, got {n}")
    ordered = sorted(values)
    rank = n - beyond  # 1-based
    return Tail(
        value=float(ordered[rank - 1]),
        percentile=100.0 * rank / n,
        count=n,
        beyond=beyond,
    )


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def deciles(values: Sequence[float]) -> List[float]:
    """p10..p90 by ``statistics.quantiles(n=10)``; empty below two samples."""
    return statistics.quantiles(values, n=10) if len(values) >= 2 else []
