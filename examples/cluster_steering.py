"""Cluster steering: surviving failures and rebalancing with state transfers.

Four tiered-cache replicas serve a multi-turn chat trace while the cluster
changes under them: one replica *fails* mid-trace (its in-flight sessions
abort transactionally and re-route), another *drains* for maintenance, and
a fresh replica *joins* to absorb the load.  A ``DirectoryRouter`` steers
throughout: its prefix directory — maintained incrementally from every
replica's tree events — answers "who holds this prefix?" in one walk, and
its compute-or-load-or-both rule decides per request whether to copy hot
state across the interconnect (landing in the target's second tier),
recompute it, or *split* — ship the prefix head while the tail recomputes
in parallel.  Compare against the legacy all-or-nothing rule and against
plain prefix affinity without transfers: same failures, same re-routing,
but every displaced session pays full recompute on its new replica.

Run:  python examples/cluster_steering.py
"""

from _common import FAST
from repro import hybrid_7b
from repro.cluster import (
    DirectoryRouter,
    PrefixAffinityRouter,
    ScenarioEvent,
    simulate_cluster,
)
from repro.engine.latency import LatencyModel
from repro.metrics import ascii_table, format_bytes
from repro.models.memory import node_state_bytes
from repro.tiering import TieredMarconiCache
from repro.workloads import generate_trace

N_REPLICAS = 4
SESSIONS = 16 if FAST else 48
FAIL_AT, DRAIN_AT, JOIN_AT = 3.0, 5.0, 6.0
# A PCIe-ish 3 GB/s interconnect: the mid-regime where neither endpoint
# of the compute-or-load rule dominates, so split plans actually fire.
TRANSFER_BW = 3e9


def make_cache(model, fleet=None):
    per_cache = 8 * node_state_bytes(model, 2000, True)
    cache = TieredMarconiCache(
        model, per_cache, secondary_bytes=per_cache, alpha=1.0
    )
    if fleet is not None:
        fleet.append(cache)
    return cache


def scenario(model, fleet):
    return [
        ScenarioEvent(FAIL_AT, "fail", replica=1),
        ScenarioEvent(DRAIN_AT, "drain", replica=0),
        ScenarioEvent(JOIN_AT, "join", cache_factory=lambda: make_cache(model, fleet)),
    ]


def main() -> None:
    model = hybrid_7b()
    trace = generate_trace("lmsys", n_sessions=SESSIONS, seed=11, session_rate=2.0)

    routers = [
        ("directory + split transfers", DirectoryRouter(transfer_min_tokens=32)),
        (
            "directory, all-or-nothing",
            DirectoryRouter(split=False, transfer_min_tokens=32),
        ),
        ("prefix affinity (no transfers)", PrefixAffinityRouter()),
    ]
    rows, results = [], []
    for label, router in routers:
        # `caches` also collects the replica joined mid-trace, so the
        # leak assertions below cover the whole final fleet.
        caches = [make_cache(model) for _ in range(N_REPLICAS)]
        result = simulate_cluster(
            model,
            caches,
            router,
            trace,
            scenario=scenario(model, fleet=caches),
            latency=LatencyModel(transfer_bandwidth_bytes_per_s=TRANSFER_BW),
        )
        results.append((label, result))
        rows.append(
            [
                label,
                f"{100 * result.token_hit_rate:.1f}%",
                f"{result.ttft_percentile(95) * 1e3:.0f} ms",
                str(result.steering_counter("reroutes")),
                str(result.steering_counter("transfers_completed")),
                str(result.steering_counter("transfers_split")),
                format_bytes(result.total_transfer_bytes),
                f"{result.overlap_seconds_saved * 1e3:.1f} ms",
            ]
        )
        # The failover contract: nothing leaks, everything gets served.
        assert all(cache.open_sessions == 0 for cache in caches)
        assert all(
            node.pin_count == 0
            for cache in caches
            for node in cache.tree.iter_nodes()
        )

    steering = results[0][1]
    print(
        f"{N_REPLICAS} replicas, {trace.n_requests} requests "
        f"({SESSIONS} chat sessions); replica 1 fails at t={FAIL_AT:.0f}s, "
        f"replica 0 drains at t={DRAIN_AT:.0f}s, a spare joins at t={JOIN_AT:.0f}s\n"
    )
    print(ascii_table(
        [
            "router",
            "hit rate",
            "P95 TTFT",
            "reroutes",
            "transfers",
            "splits",
            "moved",
            "overlap saved",
        ],
        rows,
    ))
    print(
        "\nper-replica admissions:",
        "/".join(str(c) for c in steering.routed_counts),
        f"(replica {steering.n_replicas - 1} joined mid-trace)",
    )
    print(
        "\nWhen a session is displaced — by the failure, the drain, or load\n"
        "spill — the steering router copies its checkpointed prefix to the\n"
        "new replica if the modeled transfer beats recompute, and with\n"
        "split=True (the default) it may ship only the prefix *head* while\n"
        "the tail recomputes in parallel, hiding the shorter leg ('overlap\n"
        "saved').  The all-or-nothing row is the legacy PR-4 rule; the\n"
        "plain router re-derives everything from scratch.  All keep every\n"
        "session alive: orphans abort through the transactional session\n"
        "path and re-route with zero leaked pins."
    )


if __name__ == "__main__":
    main()
