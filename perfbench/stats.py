"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; fewer make it the maximum of a handful of draws.
MIN_BEYOND = 10
#: Tail percentiles tried, highest first, by :func:`highest_percentile`.
TAIL_PERCENTILES = (99.0, 98.0, 95.0, 90.0)


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples, q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``samples``.

    Refuses (:class:`TooFewSamples`) unless at least :data:`MIN_BEYOND`
    samples lie beyond the percentile's rank: p99 needs 1000 samples,
    p90 needs 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    rank = max(1, math.ceil(q * n / 100.0))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    return ordered[rank - 1]


def highest_percentile(samples):
    """``(q, value)`` for the highest of :data:`TAIL_PERCENTILES` the
    sample supports, or ``None`` when it supports none of them."""
    for q in TAIL_PERCENTILES:
        try:
            return q, percentile(samples, q)
        except TooFewSamples:
            continue
    return None


def median(samples) -> float:
    return float(statistics.median(samples))
