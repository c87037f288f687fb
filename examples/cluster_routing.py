"""Cluster serving: how routing policy decides whether caches help at all.

Four replicas, each with its own Marconi cache, serve one multi-turn chat
trace under four routers.  Round-robin scatters a session's rounds across
replicas — every round misses because the conversation's states live
elsewhere.  Prefix-affinity routing (Preble-style) follows the cached
prefix and recovers most of the single-cache hit rate, at a small load-
balance cost that the fairness metrics make visible.

Run:  python examples/cluster_routing.py
"""

from _common import FAST
from repro import MarconiCache, hybrid_7b, simulate_cluster
from repro.cluster import make_router
from repro.cluster.router import ROUTER_NAMES
from repro.metrics import ascii_table
from repro.models.memory import node_state_bytes
from repro.workloads import generate_trace

N_REPLICAS = 4
SESSIONS = 12 if FAST else 40


def main() -> None:
    model = hybrid_7b()
    trace = generate_trace("lmsys", n_sessions=SESSIONS, seed=7, session_rate=1.0)
    per_cache = 6 * node_state_bytes(model, 2000, True)

    rows = []
    for name in ROUTER_NAMES:
        caches = [MarconiCache(model, per_cache, alpha=1.0) for _ in range(N_REPLICAS)]
        result = simulate_cluster(model, caches, make_router(name), trace)
        rows.append(
            [
                name,
                f"{100 * result.token_hit_rate:.1f}%",
                f"{result.ttft_percentile(95) * 1e3:.0f} ms",
                f"{result.load_fairness:.3f}",
                "/".join(str(c) for c in result.routed_counts),
            ]
        )

    print(f"{N_REPLICAS} replicas x {per_cache / 1e9:.0f} GB caches, "
          f"{trace.n_requests} requests ({SESSIONS} chat sessions)\n")
    print(ascii_table(
        ["router", "token hit rate", "P95 TTFT", "jain fairness", "requests/replica"],
        rows,
    ))
    print(
        "\nPrefix affinity keeps each conversation on the replica that holds\n"
        "its states; content-blind balancing turns the cluster's caches into\n"
        "dead weight (hybrid states are all-or-nothing, so a mis-route loses\n"
        "the whole hit, not just part of it)."
    )


if __name__ == "__main__":
    main()
