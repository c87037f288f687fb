"""Percentile and box-summary helpers (pure NumPy wrappers)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile; validates input non-emptiness."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot take a percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    return float(np.percentile(arr, p))


@dataclass(frozen=True)
class BoxSummary:
    """The five numbers behind the paper's box plots (whiskers at P5/P95)."""

    p5: float
    q1: float
    median: float
    q3: float
    p95: float

    @classmethod
    def from_values(cls, values) -> "BoxSummary":
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("cannot summarize no values")
        p5, q1, med, q3, p95 = np.percentile(arr, [5, 25, 50, 75, 95])
        return cls(float(p5), float(q1), float(med), float(q3), float(p95))
