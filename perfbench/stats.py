"""Order statistics used by every figure the benchmark reports.

Medians and quartiles follow Python's ``statistics`` module, so a spread
computed here is the spread the acceptance rule computes.  Tail
percentiles use the nearest-rank definition and are only reported when
at least ten samples lie beyond them; with fewer, a "tail" would be a
single outlier.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: smallest sample with ``pct`` % at or below."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    return ordered[max(_rank(pct, len(ordered)), 1) - 1]


def _rank(pct: float, n: int) -> int:
    """Nearest rank of ``pct`` among ``n`` samples, in exact arithmetic."""
    return math.ceil(Fraction(str(pct)) * n / 100)


def tail(values: list[float]) -> tuple[float, float] | None:
    """(pct, value) of the highest percentile ``MIN_BEYOND`` samples lie past.

    ``None`` when the sample is too small to have a tail (fewer than
    forty samples, or no candidate leaves ten samples beyond it).
    """
    n = len(values)
    if n < 40:
        return None
    for pct in TAIL_CANDIDATES:
        beyond = n - _rank(pct, n)
        if beyond >= MIN_BEYOND:
            return pct, percentile(values, pct)
    return None


def summary(values: list[float]) -> dict:
    """Median, tail and sample count of one timing series."""
    out: dict = {"n": len(values)}
    if values:
        out["p50"] = median(values)
        t = tail(values)
        if t is not None:
            out[f"p{t[0]:g}"] = t[1]
    return out
