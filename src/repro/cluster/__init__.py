"""Cluster-level stateful serving: per-replica caches plus cache steering.

Preble (Srivatsa et al., cited in the paper's related work) shows that when
every GPU keeps its own prefix cache, the *router* becomes part of the
caching policy: sending a request to the replica that already holds its
longest prefix turns an R-way split cache back into (almost) one big cache,
while naive load balancing scatters sessions and destroys reuse.

This package provides that routing layer and grows it into a full
steering subsystem:

* :mod:`repro.cluster.router` — the routing policies, including the
  directory-backed prefix affinity and the transfer-planning
  :class:`DirectoryRouter`;
* :mod:`repro.cluster.directory` — the router-side global prefix
  directory, an incrementally maintained radix index mapping prefixes to
  replica sets (one O(query-depth) lookup per request);
* :mod:`repro.cluster.simulator` — the multi-replica discrete-event
  simulator, with cross-replica state transfers and elastic/failure
  scenario schedules (replicas failing, draining, and joining mid-trace).

The stakes are higher for hybrid-model caches than for Transformers: a
mis-routed request doesn't just lose part of its KV reuse, it loses the
*all-or-nothing* recurrent-state hit entirely.
"""

from repro.cluster.directory import DirectoryLookup, DirectoryStats, PrefixDirectory
from repro.cluster.router import (
    DirectoryRouter,
    HierarchicalRouter,
    LeastLoadedRouter,
    PrefixAffinityRouter,
    RoundRobinRouter,
    Router,
    SessionAffinityRouter,
    make_router,
    probe_hit_tokens,
)
from repro.cluster.sharded_directory import (
    ManualGossipTransport,
    ShardedPrefixDirectory,
)
from repro.cluster.simulator import ClusterResult, simulate_cluster
from repro.engine.steering import (
    NoRoutableReplicaError,
    RouteDecision,
    ScenarioEvent,
    SplitSpec,
    TransferSpec,
)

__all__ = [
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "SessionAffinityRouter",
    "PrefixAffinityRouter",
    "DirectoryRouter",
    "HierarchicalRouter",
    "make_router",
    "probe_hit_tokens",
    "PrefixDirectory",
    "ShardedPrefixDirectory",
    "ManualGossipTransport",
    "DirectoryLookup",
    "DirectoryStats",
    "NoRoutableReplicaError",
    "RouteDecision",
    "TransferSpec",
    "SplitSpec",
    "ScenarioEvent",
    "ClusterResult",
    "simulate_cluster",
]
