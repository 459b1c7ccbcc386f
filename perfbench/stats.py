"""Order statistics for timing samples."""

from __future__ import annotations

import statistics
from typing import NamedTuple

TAIL_BEYOND = 10


class Tail(NamedTuple):
    value: float
    percentile: float
    beyond: int  # samples above the reported one
    samples: int


def median(samples) -> float:
    return statistics.median(samples)


def tail(samples) -> Tail:
    """The highest percentile that still has ten samples beyond it.

    That is the (n-10)-th smallest of n samples, at percentile
    100 * (n-10) / n.  Below 20 samples it would fall under the median,
    which is no tail (at 11 it is the minimum), so the maximum is
    reported instead, with ``beyond`` = 0 saying so.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail: no samples")
    if n < 2 * TAIL_BEYOND:
        return Tail(ordered[-1], 100.0, 0, n)
    rank = n - TAIL_BEYOND
    return Tail(ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND, n)
