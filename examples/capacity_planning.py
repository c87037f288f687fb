"""Capacity planning: how much cache does a hybrid deployment need?

Sweeps the cache budget for a fixed workload and reports each policy's
token hit rate plus Marconi's win over LRU eviction — the operator-facing
version of the paper's Fig. 11: the FLOP-aware policy buys the most
capacity-efficiency at moderate contention, i.e. it lets you provision a
smaller cache for the same hit rate.

Run:  python examples/capacity_planning.py
"""

from _common import FAST
from repro import (
    WorkloadParams,
    generate_trace,
    hybrid_7b,
    make_cache,
    simulate_trace,
)
from repro.metrics.reporting import ascii_table

GB = 1e9
CACHE_GRID_GB = (15, 35, 60) if FAST else (15, 25, 35, 45, 60)


def main() -> None:
    model = hybrid_7b()
    trace = generate_trace(
        "swebench",
        WorkloadParams(
            n_sessions=24 if FAST else 160,
            session_rate=2.0, mean_think_s=7.5, seed=11,
        )
    )
    print(
        f"workload: {trace.n_requests} requests, "
        f"{trace.total_input_tokens / 1e6:.1f}M input tokens\n"
    )
    rows = []
    for cache_gb in CACHE_GRID_GB:
        hit = {}
        for policy in ("vllm+", "sglang+", "marconi"):
            cache = make_cache(policy, model, int(cache_gb * GB))
            result = simulate_trace(model, cache, trace, policy_name=policy)
            hit[policy] = result.token_hit_rate
        win = hit["marconi"] / max(hit["sglang+"], 1e-4) - 1
        rows.append(
            [
                f"{cache_gb} GB",
                f"{100 * hit['vllm+']:.1f}%",
                f"{100 * hit['sglang+']:.1f}%",
                f"{100 * hit['marconi']:.1f}%",
                f"{100 * win:+.1f}%",
            ]
        )
    print(ascii_table(
        ["cache", "vllm+", "sglang+ (LRU)", "marconi", "marconi vs LRU"], rows
    ))
    print(
        "\nReading: the marconi-vs-LRU column peaks at moderate contention "
        "(paper Fig. 11); at the far ends eviction policy barely matters."
    )

    # Target-driven sizing: the smallest budget hitting 30% token hit rate.
    from repro.analysis import recommend_capacity

    rec = recommend_capacity(
        model, trace, target_hit_rate=0.30,
        low_bytes=int(5 * GB), high_bytes=int(80 * GB),
    )
    print(
        f"\nplanner: {'' if rec.attainable else 'UN'}attainable target 30% -> "
        f"provision {rec.capacity_bytes / GB:.1f} GB "
        f"(measured {100 * rec.token_hit_rate:.1f}% at that budget)"
    )


if __name__ == "__main__":
    main()
