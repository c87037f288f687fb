"""Iteration-level batching engine with chunked prefill (Orca / Sarathi).

The FCFS simulator in :mod:`repro.engine.server` models dedicated prefill
executors with background decode, which is the right lens for TTFT — but it
cannot show the paper's footnote 2: *"Even though prefix caching is a
prefill-only optimization, a lower prefill latency also reduces the tail
TPT for high-throughput LLM inference engines"*.  That effect lives at the
iteration level: when one GPU serves prefills and decodes together, every
prefill chunk occupies an iteration that all concurrent decode streams
must wait through — so skipping prefill via cache hits directly shortens
other requests' inter-token gaps.

This engine is a one-replica configuration of
:class:`repro.engine.kernel.SimulationKernel` with the token-level
:class:`~repro.engine.schedulers.TokenBatchingScheduler`:

* time advances in *iterations*; each iteration carries every active
  decode stream (one token each, up to ``max_batch``) plus at most one
  prefill chunk of up to ``token_budget`` tokens from the head-of-line
  prefill (Sarathi-style chunked prefill, referenced in the paper's
  section 6);
* iteration duration = fixed overhead + the chunk's suffix-aware prefill
  FLOPs at the accelerator's effective throughput + one decode step's
  memory-bound cost (shared by the whole batch) + state-fetch time on a
  chunk that begins a cache hit;
* TTFT is the completion of a request's last prefill chunk; every decode
  token records its inter-token gap, yielding the TBT/TPOT distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.interfaces import CacheProtocol
from repro.engine.kernel import SimulationKernel
from repro.engine.latency import LatencyModel
from repro.engine.results import EngineResult
from repro.engine.schedulers import TokenBatchingScheduler
from repro.models.config import ModelConfig
from repro.workloads.trace import Trace, TraceStream


@dataclass(frozen=True)
class IterationConfig:
    """Scheduler knobs of the iteration-level engine."""

    token_budget: int = 512
    max_batch: int = 64
    iteration_overhead_s: float = 0.002

    def __post_init__(self) -> None:
        if self.token_budget < 1:
            raise ValueError(f"token_budget must be >= 1, got {self.token_budget}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.iteration_overhead_s < 0:
            raise ValueError("iteration_overhead_s must be non-negative")


@dataclass
class IterationResult(EngineResult):
    """Per-request records plus the engine-wide inter-token gap sample."""

    tbt_gaps: list[float] = field(default_factory=list)
    n_iterations: int = 0

    def tbt_percentile(self, percentile: float) -> float:
        """Inter-token-gap percentile across all decoded tokens."""
        if not self.tbt_gaps:
            raise ValueError("no decode gaps recorded")
        return float(np.percentile(self.tbt_gaps, percentile))


def simulate_trace_iteration(
    model: ModelConfig,
    cache: CacheProtocol,
    trace: Trace | TraceStream,
    latency: Optional[LatencyModel] = None,
    config: Optional[IterationConfig] = None,
    policy_name: str = "unnamed",
) -> IterationResult:
    """Replays one trace through one cache, iteration by iteration; returns
    the records plus the TBT gap sample."""
    config = config or IterationConfig()

    def factory(kernel: SimulationKernel, replica: int) -> TokenBatchingScheduler:
        return TokenBatchingScheduler(
            kernel,
            replica,
            token_budget=config.token_budget,
            max_batch=config.max_batch,
            iteration_overhead_s=config.iteration_overhead_s,
        )

    kernel = SimulationKernel(
        model,
        [cache],
        latency,
        scheduler_factory=factory,
        policy_names=[policy_name],
    )
    run = kernel.run(trace)
    base = run.replica_results[0]
    scheduler: TokenBatchingScheduler = run.schedulers[0]
    return IterationResult(
        policy=base.policy,
        records=base.records,
        cache_stats=base.cache_stats,
        max_running=base.max_running,
        queue_depth_series=base.queue_depth_series,
        running_series=base.running_series,
        tbt_gaps=scheduler.tbt_gaps,
        n_iterations=scheduler.n_iterations,
    )
