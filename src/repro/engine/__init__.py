"""Discrete-event serving simulators with an analytic latency model.

All engines are thin configurations of the unified simulation kernel in
:mod:`repro.engine.kernel` (event queue, virtual clock, a dispatch table
and the closed loop of every trace session) with one scheduler of
:mod:`repro.engine.schedulers` per replica (FCFS + continuous batching, or
token-level):

* :class:`~repro.engine.server.ServingSimulator` — one replica, FCFS over
  ``n_executors`` prefill slots with background decode; per-request
  records (TTFT, queue delay, hit tokens, FLOPs saved).
* :class:`~repro.engine.iteration.IterationSimulator` — one replica,
  iteration-level batching with Sarathi-style chunked prefill; adds the
  TBT/TPOT gap distribution.
* :class:`repro.cluster.simulator.ClusterSimulator` — N replicas behind a
  router, each an independent FCFS executor with its own cache.
"""

from repro.engine.events import EventKind, EventQueue
from repro.engine.iteration import (
    IterationConfig,
    IterationResult,
    IterationSimulator,
    simulate_trace_iteration,
)
from repro.engine.kernel import (
    KernelConfig,
    KernelRun,
    SimulationKernel,
    VirtualClock,
)
from repro.engine.latency import LatencyModel
from repro.engine.request import EngineRequest
from repro.engine.results import EngineResult, RequestRecord, step_time_weighted_mean
from repro.engine.schedulers import (
    ContinuousBatchingScheduler,
    ReplicaScheduler,
    TokenBatchingScheduler,
)
from repro.engine.server import ServingSimulator, simulate_trace
from repro.engine.steering import (
    NoRoutableReplicaError,
    RouteDecision,
    ScenarioEvent,
    SplitPlan,
    SplitSpec,
    SteeringTelemetry,
    TransferSpec,
    plan_split,
)

__all__ = [
    "EventKind",
    "EventQueue",
    "IterationConfig",
    "IterationResult",
    "IterationSimulator",
    "simulate_trace_iteration",
    "ContinuousBatchingScheduler",
    "KernelConfig",
    "KernelRun",
    "ReplicaScheduler",
    "SimulationKernel",
    "TokenBatchingScheduler",
    "VirtualClock",
    "LatencyModel",
    "EngineRequest",
    "EngineResult",
    "RequestRecord",
    "step_time_weighted_mean",
    "ServingSimulator",
    "simulate_trace",
    "NoRoutableReplicaError",
    "RouteDecision",
    "TransferSpec",
    "SplitPlan",
    "SplitSpec",
    "plan_split",
    "ScenarioEvent",
    "SteeringTelemetry",
]
