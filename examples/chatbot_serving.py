"""Chatbot serving: compare all four policies on an LMSys-like workload.

Generates a multi-turn chat trace (Poisson session arrivals, lognormal
lengths, shared system prompts), replays it through the discrete-event
serving simulator under each caching policy, and prints the paper's
headline metrics: token hit rate and P50/P95 TTFT.

Run:  python examples/chatbot_serving.py [cache_gb]
"""

import sys

from _common import FAST
from repro import (
    LatencyModel,
    WorkloadParams,
    generate_trace,
    hybrid_7b,
    make_cache,
    simulate_trace,
)
from repro.metrics.reporting import ascii_table

GB = 1e9
POLICIES = ("vanilla", "vllm+", "sglang+", "marconi")


def main() -> None:
    cache_gb = float(sys.argv[1]) if len(sys.argv) > 1 else 8.0
    model = hybrid_7b()
    latency = LatencyModel()
    trace = generate_trace(
        "lmsys",
        WorkloadParams(
            n_sessions=24 if FAST else 120,
            session_rate=2.0, mean_think_s=5.0, seed=7,
        )
    )
    print(
        f"workload: {trace.n_requests} requests over {trace.n_sessions} sessions, "
        f"{trace.total_input_tokens:,} input tokens; cache {cache_gb:g} GB\n"
    )
    rows = []
    for policy in POLICIES:
        cache = make_cache(policy, model, int(cache_gb * GB))
        result = simulate_trace(model, cache, trace, latency, policy_name=policy)
        rows.append(
            [
                policy,
                f"{100 * result.token_hit_rate:.1f}%",
                f"{1000 * result.ttft_percentile(50):.0f} ms",
                f"{1000 * result.ttft_percentile(95):.0f} ms",
                f"{result.total_flops_saved:.3g}",
                f"{result.cache_stats.get('evictions', 0)}",
            ]
        )
    print(
        ascii_table(
            ["policy", "token hit rate", "P50 TTFT", "P95 TTFT", "FLOPs saved", "evictions"],
            rows,
        )
    )
    print(
        "\nExpected shape (paper Figs. 7-9): marconi >= sglang+ >> vllm+ on hit"
        " rate, with matching TTFT ordering; vanilla defines the TTFT ceiling."
    )


if __name__ == "__main__":
    main()
