"""TTFT comparisons against the vanilla (no-cache) run."""

from __future__ import annotations

from repro.engine.results import EngineResult
from repro.metrics.percentiles import percentile


def relative_ttft_percentile(
    result: EngineResult, vanilla: EngineResult, p: float = 95
) -> float:
    """P-th percentile TTFT of ``result`` relative to ``vanilla`` (Fig. 9).

    Values below 1.0 mean the cache reduced tail TTFT.
    """
    base = percentile(vanilla.ttfts(), p)
    if base <= 0:
        raise ValueError("vanilla TTFT percentile is non-positive")
    return percentile(result.ttfts(), p) / base
