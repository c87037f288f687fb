"""Per-request records and aggregate views of one simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(slots=True)
class RequestRecord:
    """Everything measured about one served request."""

    session_id: int
    round_index: int
    arrival_time: float
    service_start: float
    prefill_seconds: float
    ttft: float
    input_len: int
    hit_tokens: int
    output_len: int
    reused_bytes: int
    flops_saved: float

    @property
    def queue_delay(self) -> float:
        return self.service_start - self.arrival_time

    @property
    def hit_rate(self) -> float:
        return self.hit_tokens / self.input_len if self.input_len else 0.0


def step_time_weighted_mean(series: list[tuple[float, float]]) -> float:
    """Time-weighted mean of a right-continuous step function.

    ``series`` is ``[(time, value), ...]`` with non-decreasing times; each
    value holds until the next sample.  Fewer than two samples (or a
    zero-length span) means there is no interval to average over: 0.0.
    """
    if len(series) < 2:
        return 0.0
    area = 0.0
    for (t0, v0), (t1, _) in zip(series, series[1:]):
        area += v0 * (t1 - t0)
    span = series[-1][0] - series[0][0]
    if span <= 0.0:
        return 0.0
    return area / span


@dataclass
class EngineResult:
    """All records of one (trace, policy) simulation plus cache counters.

    The kernel additionally attaches scheduling telemetry: ``max_running``
    (executor slots of the replica that produced this result) and two
    change-point timeseries sampled by the simulation kernel —
    ``queue_depth_series`` (requests waiting, excluding running) and
    ``running_series`` (occupied executor slots), each as ``(time, value)``
    step functions closed by a final sample at drain time.
    """

    policy: str
    records: list[RequestRecord] = field(default_factory=list)
    cache_stats: dict = field(default_factory=dict)
    max_running: int = 1
    queue_depth_series: list[tuple[float, int]] = field(default_factory=list)
    running_series: list[tuple[float, int]] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def token_hit_rate(self) -> float:
        """Tokens that skipped prefill over total input tokens (the paper's metric)."""
        total_input = sum(r.input_len for r in self.records)
        if total_input == 0:
            return 0.0
        return sum(r.hit_tokens for r in self.records) / total_input

    @property
    def total_flops_saved(self) -> float:
        return sum(r.flops_saved for r in self.records)

    def ttfts(self) -> np.ndarray:
        return np.asarray([r.ttft for r in self.records], dtype=np.float64)

    def ttft_percentile(self, percentile: float) -> float:
        """Linear-interpolated TTFT percentile in seconds (e.g. 95 for P95)."""
        values = self.ttfts()
        if len(values) == 0:
            raise ValueError("no records to take a percentile of")
        return float(np.percentile(values, percentile))

    def mean_queue_delay(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.queue_delay for r in self.records]))

    # ------------------------------------------------------------------
    # Scheduling telemetry (populated by the simulation kernel)
    # ------------------------------------------------------------------
    def mean_queue_depth(self) -> float:
        """Time-weighted mean number of requests waiting (not running)."""
        return step_time_weighted_mean(self.queue_depth_series)

    def peak_queue_depth(self) -> int:
        """Deepest instantaneous FCFS backlog observed."""
        if not self.queue_depth_series:
            return 0
        return max(depth for _, depth in self.queue_depth_series)

    def mean_running(self) -> float:
        """Time-weighted mean number of occupied executor slots."""
        return step_time_weighted_mean(self.running_series)

    def executor_utilization(self) -> float:
        """Time-weighted fraction of executor slots busy (0..1)."""
        if self.max_running <= 0:
            return 0.0
        return self.mean_running() / self.max_running
