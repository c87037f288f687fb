"""Agentic serving: FLOP-aware eviction on a SWE-Bench-like workload.

The agentic workload has the paper's widest input-length distribution
(trajectories grow from hundreds of tokens to tens of thousands), which is
exactly where FLOP-aware eviction pays: under cache contention it trades
hit rate on short trajectories for hit rate on long ones (paper Fig. 10).
This example reproduces that fine-grained view: per-length-bin hit-rate
difference between Marconi and SGLang+ (LRU).

Run:  python examples/agentic_serving.py [cache_gb]
"""

import sys

import numpy as np

from repro import (
    WorkloadParams,
    generate_trace,
    hybrid_7b,
    make_cache,
    simulate_trace,
)
from repro.metrics.hit_rate import mean_hit_rate_by_length_bin
from repro.metrics.reporting import ascii_table

from _common import FAST

GB = 1e9


def main() -> None:
    cache_gb = float(sys.argv[1]) if len(sys.argv) > 1 else 35.0
    model = hybrid_7b()
    trace = generate_trace(
        "swebench",
        WorkloadParams(
            n_sessions=24 if FAST else 160,
            session_rate=2.0, mean_think_s=7.5, seed=7,
        )
    )
    print(
        f"workload: {trace.n_requests} agent steps over {trace.n_sessions} "
        f"trajectories; inputs up to {trace.input_lengths().max():,} tokens\n"
    )
    results = {}
    for policy in ("sglang+", "marconi"):
        cache = make_cache(policy, model, int(cache_gb * GB))
        results[policy] = simulate_trace(model, cache, trace, policy_name=policy)

    edges = np.arange(0, trace.input_lengths().max() + 5000, 5000)
    marconi_rates, counts = mean_hit_rate_by_length_bin(results["marconi"].records, edges)
    sglang_rates, _ = mean_hit_rate_by_length_bin(results["sglang+"].records, edges)
    rows = []
    for i in range(len(edges) - 1):
        if counts[i] == 0:
            continue
        rows.append(
            [
                f"{edges[i] // 1000}-{edges[i + 1] // 1000}K",
                int(counts[i]),
                f"{100 * sglang_rates[i]:.1f}%",
                f"{100 * marconi_rates[i]:.1f}%",
                f"{100 * (marconi_rates[i] - sglang_rates[i]):+.1f}%",
            ]
        )
    print(ascii_table(["input length", "requests", "sglang+ (LRU)", "marconi", "diff"], rows))
    win = results["marconi"].token_hit_rate / max(results["sglang+"].token_hit_rate, 1e-4) - 1
    print(
        f"\noverall: marconi {100 * results['marconi'].token_hit_rate:.1f}% vs "
        f"sglang+ {100 * results['sglang+'].token_hit_rate:.1f}% "
        f"({100 * win:+.1f}%) — expect losses on short bins, wins on long ones"
    )


if __name__ == "__main__":
    main()
