"""Two-tier caching: a slower second tier rescues evicted checkpoints.

A contended primary tier (too small for the working set) is paired with a
larger second-tier store.  Checkpoints that the primary evicts are demoted
instead of discarded; conversations that return after a long pause are
served by promoting their states back, paying the secondary fetch
bandwidth instead of a full re-prefill.

Run:  python examples/tiered_serving.py
"""

from _common import FAST
from repro import LatencyModel, MarconiCache, TieredMarconiCache, hybrid_7b, simulate_trace
from repro.metrics import ascii_table
from repro.models.memory import node_state_bytes
from repro.workloads import generate_trace


def main() -> None:
    model = hybrid_7b()
    trace = generate_trace("lmsys", n_sessions=12 if FAST else 40, seed=3, mean_think_s=8.0)
    primary = 5 * node_state_bytes(model, 2000, True)
    latency = LatencyModel()  # 25 GB/s primary fetch, 8 GB/s secondary

    variants = {
        "single-tier": MarconiCache(model, primary, alpha=1.0),
        "tiered (+200 GB)": TieredMarconiCache(
            model, primary, int(200e9), alpha=1.0, secondary_policy="flop_aware"
        ),
    }

    rows = []
    for name, cache in variants.items():
        result = simulate_trace(model, cache, trace, latency, policy_name=name)
        extra = cache.stats.extra
        rows.append(
            [
                name,
                f"{100 * result.token_hit_rate:.1f}%",
                f"{result.ttft_percentile(95) * 1e3:.0f} ms",
                str(extra.get("demotions", 0)),
                str(extra.get("promotions", 0)),
            ]
        )

    print(
        f"primary tier: {primary / 1e9:.0f} GB | trace: {trace.n_requests} requests, "
        f"long think times force churn\n"
    )
    print(ascii_table(
        ["cache", "token hit rate", "P95 TTFT", "demotions", "promotions"], rows,
    ))
    print(
        "\nDemoted entries are self-contained (checkpoint + the prefix's KVs),\n"
        "so the second tier trades bytes for the ability to survive primary\n"
        "evictions; promotions pay the slower fetch but skip the prefill."
    )


if __name__ == "__main__":
    main()
