"""Token hit rate aggregation and comparisons."""

from __future__ import annotations

import numpy as np

from repro.engine.results import RequestRecord


def improvement_ratio(candidate: float, baseline: float, floor: float = 1e-4) -> float:
    """``candidate / baseline`` with a floor on the baseline.

    The paper reports hit-rate wins as ratios (e.g. "34.4x higher"); the
    floor keeps near-zero baselines (vLLM+ under SWEBench-style thrash)
    from producing infinities while preserving the "orders of magnitude"
    reading.
    """
    return candidate / max(baseline, floor)


def mean_hit_rate_by_length_bin(
    records: list[RequestRecord], bin_edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Average per-request hit rate binned by input length (Fig. 10a).

    Returns ``(mean_hit_rate_per_bin, counts_per_bin)``; empty bins get NaN.
    """
    edges = np.asarray(bin_edges, dtype=np.float64)
    if edges.ndim != 1 or len(edges) < 2:
        raise ValueError("bin_edges must be a 1-D array of at least two edges")
    lengths = np.asarray([r.input_len for r in records], dtype=np.float64)
    rates = np.asarray([r.hit_rate for r in records], dtype=np.float64)
    indices = np.digitize(lengths, edges) - 1
    n_bins = len(edges) - 1
    means = np.full(n_bins, np.nan)
    counts = np.zeros(n_bins, dtype=np.int64)
    for b in range(n_bins):
        mask = indices == b
        counts[b] = int(mask.sum())
        if counts[b]:
            means[b] = float(rates[mask].mean())
    return means, counts
