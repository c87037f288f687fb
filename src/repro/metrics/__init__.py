"""Metrics: token hit rate, TTFT percentiles, FLOP savings, and summaries."""

from repro.metrics.export import (
    gateway_summary_dict,
    steering_split_summary,
    summary_dict,
)
from repro.metrics.fairness import coefficient_of_variation, jain_fairness
from repro.metrics.hit_rate import improvement_ratio, mean_hit_rate_by_length_bin
from repro.metrics.percentiles import BoxSummary, percentile
from repro.metrics.reporting import ascii_table, format_bytes
from repro.metrics.throughput import makespan_seconds, prefill_throughput_tokens_per_s
from repro.metrics.ttft import relative_ttft_percentile

__all__ = [
    "improvement_ratio",
    "mean_hit_rate_by_length_bin",
    "BoxSummary",
    "percentile",
    "relative_ttft_percentile",
    "ascii_table",
    "format_bytes",
    "jain_fairness",
    "coefficient_of_variation",
    "makespan_seconds",
    "prefill_throughput_tokens_per_s",
    "summary_dict",
    "steering_split_summary",
    "gateway_summary_dict",
]
