"""Order statistics used by the benchmark reports."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def iqr(values) -> float:
    """Distance between the first and third quartile (0 for fewer than 2)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q3 - q1)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def summary(values) -> dict:
    values = list(values)
    return {"median": median(values), "iqr": iqr(values), "n": len(values)}
