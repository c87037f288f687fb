"""Result export: per-request CSV and aggregate JSON.

The paper's artifact writes one log file per dataset sweep and post-
processes it with plotting scripts; these helpers provide the equivalent
machine-readable surface for this reproduction's results.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

from repro.engine.results import EngineResult

_CSV_FIELDS = (
    "session_id",
    "round_index",
    "arrival_time",
    "service_start",
    "prefill_seconds",
    "ttft",
    "input_len",
    "hit_tokens",
    "output_len",
    "reused_bytes",
    "flops_saved",
)


def records_to_csv(result: EngineResult, path: str | Path) -> None:
    """Write one CSV row per served request."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for record in result.records:
            row = asdict(record)
            writer.writerow({key: row[key] for key in _CSV_FIELDS})


def records_from_csv(path: str | Path) -> list[dict]:
    """Read rows written by :func:`records_to_csv` with numeric types restored."""
    path = Path(path)
    out: list[dict] = []
    with path.open() as fh:
        for row in csv.DictReader(fh):
            parsed = dict(row)
            for key in ("session_id", "round_index", "input_len", "hit_tokens",
                        "output_len", "reused_bytes"):
                parsed[key] = int(row[key])
            for key in ("arrival_time", "service_start", "prefill_seconds",
                        "ttft", "flops_saved"):
                parsed[key] = float(row[key])
            out.append(parsed)
    return out


def summary_dict(result: EngineResult) -> dict:
    """Aggregate view of one run (policy, hit rate, TTFT percentiles)."""
    from repro.metrics.throughput import (
        makespan_seconds,
        prefill_throughput_tokens_per_s,
    )

    summary: dict = {
        "policy": result.policy,
        "n_requests": result.n_requests,
        "token_hit_rate": result.token_hit_rate,
        "total_flops_saved": result.total_flops_saved,
        "makespan_seconds": makespan_seconds(result),
        "prefill_throughput_tokens_per_s": prefill_throughput_tokens_per_s(result),
        "cache_stats": result.cache_stats,
    }
    if result.records:
        summary["ttft_p5"] = result.ttft_percentile(5)
        summary["ttft_p50"] = result.ttft_percentile(50)
        summary["ttft_p95"] = result.ttft_percentile(95)
    return summary


def _write_json(payload: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def summary_to_json(result: EngineResult, path: str | Path) -> None:
    """Write :func:`summary_dict` as pretty-printed JSON."""
    _write_json(summary_dict(result), path)


def summary_from_json(path: str | Path) -> dict:
    """Load a summary written by :func:`summary_to_json` (or its cluster
    counterpart :func:`cluster_summary_to_json`)."""
    return json.loads(Path(path).read_text())


def cluster_summary_dict(result) -> dict:
    """Aggregate view of one cluster run (duck-typed on
    :meth:`repro.cluster.simulator.ClusterResult.to_dict`): cluster-wide
    hit rate and TTFT percentiles, per-replica summaries, steering and
    directory telemetry, and the scenario schedule — so cluster runs land
    in the same reporting pipeline as single-engine runs."""
    return result.to_dict()


def cluster_summary_to_json(result, path: str | Path) -> None:
    """Write :func:`cluster_summary_dict` as pretty-printed JSON."""
    _write_json(cluster_summary_dict(result), path)


#: Counters promoted into :func:`steering_split_summary` (absent counters
#: export as 0 so downstream tooling sees a stable shape).  The kernel
#: bumps the transfer/overlap ones on its steering telemetry; the router
#: makes the compute/load/split decision and counts it in its own stats.
_KERNEL_SPLIT_COUNTERS = (
    "transfers_planned",
    "transfers_split",
    "transfers_completed",
    "transfers_dropped",
    "splits_overlapped",
    "splits_hidden",
    "splits_ignored",
)
_ROUTER_DECISION_COUNTERS = ("chose_recompute", "chose_load", "chose_split")


def steering_split_summary(result) -> dict:
    """Compact split-point steering view of one cluster run.

    Duck-typed on :class:`~repro.cluster.simulator.ClusterResult`:
    promotes the router's compute/load/split decision counters
    (``router_stats``), the kernel's transfer and overlap counters, the
    overlap savings, and the transfer-link ledger (``steering``) into one
    flat dict — the shape the steering benchmarks embed in
    ``BENCH_steering.json``.
    """
    router_stats = result.router_stats
    out: dict = {key: router_stats.get(key, 0) for key in _ROUTER_DECISION_COUNTERS}
    steering = result.steering
    if steering is None:
        out.update({key: 0 for key in _KERNEL_SPLIT_COUNTERS})
        out["overlap_seconds_saved"] = 0.0
        out["link_wait_seconds"] = 0.0
        out["total_transfer_bytes"] = 0
        return out
    for key in _KERNEL_SPLIT_COUNTERS:
        out[key] = steering.counters.get(key, 0)
    out["overlap_seconds_saved"] = steering.overlap_seconds_saved
    out["link_wait_seconds"] = steering.link_wait_seconds
    out["total_transfer_bytes"] = steering.total_transfer_bytes
    return out


#: Scalar staleness fields promoted into :func:`directory_staleness_summary`
#: (the sharded backend's aggregate counters; absent keys are skipped, so
#: the synchronous oracle's snapshot passes through its own counters).
_STALENESS_SCALARS = (
    "backend",
    "n_shards",
    "live_shards",
    "propagation_delay",
    "gossip_budget",
    "events",
    "lookups",
    "updates_applied",
    "updates_pending",
    "updates_dropped",
    "invalidations",
    "shard_losses",
    "lookup_age_p50",
    "lookup_age_p95",
    "lookup_age_max",
)


def directory_staleness_summary(result) -> dict:
    """Compact staleness view of one cluster run (duck-typed on
    :attr:`repro.cluster.simulator.ClusterResult.directory_staleness`):
    the scalar aggregate counters plus per-shard ``(applied, pending)``
    update counts, without the full per-shard maintenance breakdown —
    the block reports and sweep tables want one row per run."""
    staleness = getattr(result, "directory_staleness", None)
    if staleness is None:
        staleness = result if isinstance(result, dict) else {}
    summary = {
        key: staleness[key] for key in _STALENESS_SCALARS if key in staleness
    }
    per_shard = staleness.get("per_shard")
    if per_shard:
        summary["shard_applied_updates"] = [s["applied_updates"] for s in per_shard]
        summary["shard_pending_updates"] = [s["pending_updates"] for s in per_shard]
    return summary


cluster_summary_from_json = summary_from_json


def gateway_summary_dict(gateway) -> dict:
    """Aggregate view of one live gateway (duck-typed on
    :class:`repro.serving.gateway.Gateway`): the admission counters
    (admitted/shed/aborted, response-cache hits), per-tier queue depths,
    response-cache hit/byte stats, and the underlying prefix cache's
    counters — so live runs land in the same reporting pipeline as
    simulated ones."""
    summary: dict = {
        "gateway": gateway.stats.snapshot(),
        "tiers": gateway.tier_depths(),
    }
    if gateway.response_cache is not None:
        summary["response_cache"] = gateway.response_cache.stats.snapshot()
    cache = getattr(gateway.server, "cache", None)
    if cache is not None:
        summary["prefix_cache"] = cache.stats.snapshot()
        summary["open_sessions"] = cache.open_sessions
    return summary


def gateway_summary_to_json(gateway, path: str | Path) -> None:
    """Write :func:`gateway_summary_dict` as pretty-printed JSON."""
    _write_json(gateway_summary_dict(gateway), path)


gateway_summary_from_json = summary_from_json
