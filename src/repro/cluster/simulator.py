"""Discrete-event simulator for a cluster of cache-owning replicas.

Each replica is a prefill executor (``max_running`` concurrent slots,
default 1) with its own prefix cache (the Preble deployment model).  The
router assigns requests at *arrival*; from there a request lives entirely
on its replica: FCFS queueing, cache lookup at service start, background
decode, admission at decode end, and closed-loop scheduling of the
session's next round (which is routed afresh — a session can migrate if
the router decides so).

This simulator is an N-replica configuration of
:class:`repro.engine.kernel.SimulationKernel` with one
:class:`~repro.engine.schedulers.ContinuousBatchingScheduler` per replica;
the event loop, routing dispatch, transfer execution, and telemetry live
in the kernel.

Two cluster-scale behaviours layer on top of plain routing:

* **State transfers** — steering routers (see
  :class:`~repro.cluster.router.DirectoryRouter`) may attach a
  :class:`~repro.engine.steering.TransferSpec` to a routing decision; the
  kernel charges it as an asynchronous bandwidth/latency event and lands
  the bytes in the target's second-tier store.
* **Elastic / failure scenarios** — a schedule of
  :class:`~repro.engine.steering.ScenarioEvent` entries makes replicas
  fail (sessions aborted through the transactional path, cache wiped,
  directory invalidated, orphans re-routed), drain, or join mid-trace.
  With a scenario, ``routed_counts`` counts *admissions*, so its sum
  exceeds the trace's request count by the number of re-routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.interfaces import CacheProtocol
from repro.engine.kernel import KernelConfig, SimulationKernel
from repro.engine.latency import LatencyModel
from repro.engine.results import EngineResult
from repro.engine.steering import ScenarioEvent, SteeringTelemetry
from repro.cluster.router import Router
from repro.metrics.fairness import coefficient_of_variation, jain_fairness
from repro.models.config import ModelConfig
from repro.workloads.trace import Trace, TraceStream


@dataclass
class ClusterResult:
    """Everything measured about one (trace, router, caches) cluster run."""

    router: str
    replica_results: list[EngineResult]
    routed_counts: list[int]
    busy_seconds: list[float]
    steering: Optional[SteeringTelemetry] = None
    router_stats: dict = field(default_factory=dict)
    directory_stats: Optional[dict] = None
    scenario: list[dict] = field(default_factory=list)

    @property
    def n_replicas(self) -> int:
        return len(self.replica_results)

    @property
    def n_requests(self) -> int:
        return sum(r.n_requests for r in self.replica_results)

    @property
    def token_hit_rate(self) -> float:
        """Cluster-wide tokens served from cache over total input tokens."""
        total_input = sum(
            rec.input_len for result in self.replica_results for rec in result.records
        )
        if total_input == 0:
            return 0.0
        total_hit = sum(
            rec.hit_tokens for result in self.replica_results for rec in result.records
        )
        return total_hit / total_input

    def ttfts(self) -> np.ndarray:
        """All replicas' per-request TTFTs (seconds), unordered."""
        values = [
            rec.ttft for result in self.replica_results for rec in result.records
        ]
        return np.asarray(values, dtype=np.float64)

    def ttft_percentile(self, percentile: float) -> float:
        """Cluster-wide TTFT percentile in seconds."""
        values = self.ttfts()
        if len(values) == 0:
            raise ValueError("no records to take a percentile of")
        return float(np.percentile(values, percentile))

    @property
    def load_fairness(self) -> float:
        """Jain's index over per-replica busy time (1.0 = perfectly even)."""
        return jain_fairness(self.busy_seconds)

    @property
    def load_imbalance(self) -> float:
        """Coefficient of variation of per-replica busy time."""
        return coefficient_of_variation(self.busy_seconds)

    def mean_executor_utilization(self) -> float:
        """Mean per-replica executor utilization (time-weighted, 0..1)."""
        if not self.replica_results:
            return 0.0
        values = [r.executor_utilization() for r in self.replica_results]
        return float(np.mean(values))

    # ------------------------------------------------------------------
    # Steering telemetry views
    # ------------------------------------------------------------------
    @property
    def total_transfer_bytes(self) -> int:
        """Bytes moved between replicas by state transfers."""
        return self.steering.total_transfer_bytes if self.steering else 0

    def steering_counter(self, key: str) -> int:
        """One scalar steering counter (0 when never bumped)."""
        if self.steering is None:
            return 0
        return self.steering.counters.get(key, 0)

    @property
    def overlap_seconds_saved(self) -> float:
        """TTFT seconds saved by split-point transfer/prefill overlap."""
        return self.steering.overlap_seconds_saved if self.steering else 0.0

    @property
    def directory_staleness(self) -> dict:
        """Staleness telemetry of the routing directory ({} for content-
        blind routers).  A sharded backend reports
        per-shard applied/pending update counts, dropped batches, and
        lookup-age percentiles here (see
        :meth:`repro.cluster.sharded_directory.ShardedPrefixDirectory.staleness`);
        the synchronous oracle reports its maintenance counters."""
        return dict(self.directory_stats) if self.directory_stats else {}

    def to_dict(self) -> dict:
        """JSON-ready summary: cluster aggregates, per-replica summaries,
        steering/directory telemetry, and the scenario schedule."""
        from repro.metrics.export import summary_dict

        out: dict = {
            "router": self.router,
            "n_replicas": self.n_replicas,
            "n_requests": self.n_requests,
            "token_hit_rate": self.token_hit_rate,
            "routed_counts": list(self.routed_counts),
            "busy_seconds": list(self.busy_seconds),
            "load_fairness": self.load_fairness,
            "load_imbalance": self.load_imbalance,
            "mean_executor_utilization": self.mean_executor_utilization(),
            "replicas": [summary_dict(result) for result in self.replica_results],
        }
        if self.n_requests:
            out["ttft_p50"] = self.ttft_percentile(50)
            out["ttft_p95"] = self.ttft_percentile(95)
        if self.steering is not None:
            out["steering"] = self.steering.to_dict()
        if self.router_stats:
            out["router_stats"] = dict(self.router_stats)
        if self.directory_stats is not None:
            out["directory"] = dict(self.directory_stats)
        if self.scenario:
            out["scenario"] = list(self.scenario)
        return out


def simulate_cluster(
    model: ModelConfig,
    caches: Sequence[CacheProtocol],
    router: Router,
    trace: Trace | TraceStream,
    latency: Optional[LatencyModel] = None,
    max_running: int = 1,
    scenario: Optional[Sequence[ScenarioEvent]] = None,
) -> ClusterResult:
    """Replays one trace through R replicas under one routing policy."""
    scenario = list(scenario) if scenario else []
    kernel = SimulationKernel(
        model,
        caches,
        latency,
        router=router,
        config=KernelConfig(max_running=max_running),
        policy_names=[f"{router.name}/replica{i}" for i in range(len(caches))],
        scenario=scenario,
    )
    run = kernel.run(trace)
    result = ClusterResult(
        router=router.name,
        replica_results=run.replica_results,
        routed_counts=run.routed_counts,
        busy_seconds=run.busy_seconds,
        steering=run.steering,
        router_stats=router.decision_stats,
        directory_stats=router.directory_stats,
        scenario=[event.to_dict() for event in scenario],
    )
    # Run-end teardown: detach the router's tree observers so the
    # caches stop paying directory maintenance outside cluster runs.
    router.release()
    return result
