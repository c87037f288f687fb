"""The discrete-event serving simulator (kernel-backed).

Timeline for each request:

1. It *arrives* (session start, or previous round's decode end plus think
   time) and joins the FCFS prefill queue.
2. When a prefill executor slot frees up, the request is *served*: the
   cache lookup happens here (states reused must exist at service time,
   not arrival time), the prefill occupies the slot for the latency
   model's suffix-aware duration, and TTFT = prefill end − arrival.
3. Decode proceeds in the background; at its end the full sequence is
   admitted into the cache and the session's next round is scheduled after
   the think-time gap.

This engine is a one-replica configuration of
:class:`repro.engine.kernel.SimulationKernel` with
:class:`~repro.engine.schedulers.ContinuousBatchingScheduler` over
``n_executors`` slots; the scheduling loop itself lives in the kernel.
"""

from __future__ import annotations

from typing import Optional

from repro.core.interfaces import CacheProtocol
from repro.engine.kernel import KernelConfig, SimulationKernel
from repro.engine.latency import LatencyModel
from repro.engine.results import EngineResult
from repro.models.config import ModelConfig
from repro.workloads.trace import Trace, TraceStream


def simulate_trace(
    model: ModelConfig,
    cache: CacheProtocol,
    trace: Trace | TraceStream,
    latency: Optional[LatencyModel] = None,
    policy_name: str = "unnamed",
    n_executors: int = 1,
) -> EngineResult:
    """Replays one trace through one cache under the latency model.

    ``n_executors > 1`` models data-parallel prefill workers that share the
    single prefix cache (e.g. multiple prefill streams on one node): up to
    that many requests prefill concurrently (continuous batching at
    prefill granularity), each still paying its own FLOP-derived duration.
    """
    if n_executors < 1:
        raise ValueError(f"n_executors must be >= 1, got {n_executors}")
    kernel = SimulationKernel(
        model,
        [cache],
        latency,
        config=KernelConfig(max_running=n_executors),
        policy_names=[policy_name],
    )
    return kernel.run(trace).replica_results[0]
