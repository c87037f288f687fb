"""Fleet-scale steering: a sharded prefix directory with bounded staleness.

One multi-turn chat trace is served by a two-rack fleet under three
steering configurations.  Flat prefix affinity with the synchronous
directory oracle is the reference.  Swapping in a ``ShardedPrefixDirectory``
at zero propagation delay changes *nothing* — the sharded index is
lookup-identical to the oracle, so every routing decision (and therefore
the hit rate) matches exactly; that identity is what
``tests/test_sharded_directory.py`` locks down.  The third run is the
fleet-scale configuration: a ``HierarchicalRouter`` keeps sessions
rack-local on top of a sharded directory whose updates gossip with a
propagation delay, trading a bounded amount of staleness for the batched,
budgeted update flow a real deployment needs.  The staleness telemetry
printed at the end is the knob-setting evidence: how many updates were
batched, how stale the oldest applied entry was, and what it cost in hits.

Run:  python examples/sharded_fleet.py
"""

from _common import FAST
from repro import MarconiCache, hybrid_7b, simulate_cluster
from repro.cluster import (
    HierarchicalRouter,
    PrefixAffinityRouter,
    ShardedPrefixDirectory,
)
from repro.metrics import ascii_table
from repro.metrics.export import directory_staleness_summary
from repro.models.memory import node_state_bytes
from repro.workloads import generate_trace

N_REPLICAS = 12 if FAST else 24
RACK_SIZE = 4
SESSIONS = 16 if FAST else 64
N_SHARDS = 4
REGION_TOKENS = 32
DELAY = 0.2


def sharded(delay: float = 0.0):
    kwargs = {"n_shards": N_SHARDS, "region_tokens": REGION_TOKENS}
    if delay:
        kwargs.update(propagation_delay=delay, gossip_interval=delay / 2)
    return ShardedPrefixDirectory(**kwargs)


def main() -> None:
    model = hybrid_7b()
    trace = generate_trace("lmsys", n_sessions=SESSIONS, seed=13, session_rate=2.0)
    per_cache = 6 * node_state_bytes(model, 2000, True)

    configs = [
        (
            "flat affinity, oracle directory",
            PrefixAffinityRouter(),
        ),
        (
            "flat affinity, sharded (sync)",
            PrefixAffinityRouter(directory_factory=sharded),
        ),
        (
            f"hierarchical, sharded (stale {DELAY:.1f}s)",
            HierarchicalRouter(
                rack_size=RACK_SIZE,
                directory_factory=lambda: sharded(DELAY),
            ),
        ),
    ]
    rows, results = [], []
    for label, router in configs:
        caches = [MarconiCache(model, per_cache, alpha=1.0) for _ in range(N_REPLICAS)]
        result = simulate_cluster(model, caches, router, trace)
        results.append((label, result))
        rows.append(
            [
                label,
                f"{100 * result.token_hit_rate:.1f}%",
                f"{result.ttft_percentile(95) * 1e3:.0f} ms",
                f"{result.load_fairness:.3f}",
            ]
        )
        assert all(cache.open_sessions == 0 for cache in caches)

    # Zero-delay conformance: the sharded backend must be decision-
    # identical to the oracle, so the end-to-end numbers agree exactly.
    assert results[0][1].token_hit_rate == results[1][1].token_hit_rate

    print(
        f"{N_REPLICAS} replicas in racks of {RACK_SIZE}, "
        f"{trace.n_requests} requests ({SESSIONS} chat sessions); "
        f"{N_SHARDS} directory shards, {REGION_TOKENS}-token regions\n"
    )
    print(ascii_table(["configuration", "hit rate", "P95 TTFT", "fairness"], rows))

    decisions = configs[2][1].decision_stats
    print(
        "\nhierarchical steering:",
        f"rack-local {decisions.get('rack_affinity', 0)},",
        f"spilled in-rack {decisions.get('rack_spilled', 0)},",
        f"cold {decisions.get('cold', 0)}",
    )
    staleness = directory_staleness_summary(results[2][1])
    print(
        "bounded staleness:",
        f"{staleness['events']} tree events batched into "
        f"{staleness['updates_applied']} applied shard updates,",
        f"max lookup age {staleness['lookup_age_max']:.2f}s "
        f"(bound: {DELAY:.1f}s delay + gossip interval)",
    )
    print(
        "\nThe sync sharded run matches the oracle row exactly — sharding\n"
        "changes where the index lives, not what it answers.  The stale run\n"
        "pays a small hit-rate tax for batched gossip: each replica's tree\n"
        "events coalesce into per-shard update batches that land within the\n"
        "propagation bound, so a just-served prefix is briefly invisible to\n"
        "the router but never wrongly attributed."
    )


if __name__ == "__main__":
    main()
