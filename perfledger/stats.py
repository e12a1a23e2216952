"""Order statistics shared by the runner and the compare command."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence


def quartiles(values: Sequence[float]) -> Optional[tuple[float, float, float]]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives.

    One value is its own quartiles; no values give ``None``.
    """
    data = [float(v) for v in values]
    if not data:
        return None
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), nearest-rank on the sorted sample."""
    data = sorted(float(v) for v in values)
    if not data:
        return float("nan")
    rank = max(1, min(len(data), int(-(-q * len(data) // 100))))
    return data[rank - 1]


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    q = quartiles(values)
    if q is None:
        return {"n": 0}
    return {"median": q[1], "q1": q[0], "q3": q[2], "n": len(values)}

