"""Order statistics the benchmark reports: nearest-rank percentiles, quartiles.

Kept free of any ``repro`` import so the benchmark's arithmetic cannot move
when the program under test changes.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

__all__ = [
    "MIN_TAIL_SAMPLES",
    "beyond",
    "check_tail",
    "iqr_frac",
    "median",
    "percentile",
    "quartiles",
]

#: a tail percentile is only reported when at least this many samples lie
#: strictly beyond it; fewer and one outlier moves the number.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q``% at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly past the nearest-rank ``q``."""
    return count - max(1, math.ceil(q / 100.0 * count))


def check_tail(count: int, q: float, minimum: int = MIN_TAIL_SAMPLES) -> None:
    """Raise unless ``count`` samples leave ``minimum`` beyond percentile ``q``."""
    if beyond(count, q) < minimum:
        raise ValueError(
            f"p{q:g} of {count} samples has {beyond(count, q)} beyond it; "
            f"need at least {minimum} (measure more requests)"
        )


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, exactly as ``statistics.quantiles(n=4)``."""
    if len(values) < 2:
        only = float(values[0])
        return only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def iqr_frac(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (the run-to-run spread)."""
    q1, q3 = quartiles(values)
    mid = median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(mid)
