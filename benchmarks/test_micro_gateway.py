"""Microbenchmark: live gateway throughput and TTFT under concurrency.

Replays an LMSYS-style multi-round trace through the asyncio
:class:`~repro.serving.gateway.Gateway` as fast as backpressure allows
(``speed=None``), with a :class:`~repro.serving.replay.CacheOnlyServer`
backend so the measurement isolates the serving stack — admission,
tier queues, worker scheduling, per-token event-loop yields, and prefix
cache transactions — from NumPy model compute.

Metrics: sustained requests per second over the whole replay, and the
p95 time-to-first-token across served requests.  Results are written to
``benchmarks/out/BENCH_gateway.json`` (git-ignored; CI uploads it).
This file is deliberately fast (seconds) and stays in the
default test lane; the throughput floor is skipped on single-core
runners where the asyncio loop and pytest share one CPU.
"""

from __future__ import annotations

import asyncio
import os
import time

import pytest

from _bench_io import OUT_DIR, write_bench
from repro.core.cache import MarconiCache
from repro.metrics import percentile
from repro.models.presets import hybrid_7b
from repro.serving import CacheOnlyServer, Gateway, GatewayConfig, TraceReplayer
from repro.workloads.lmsys import generate_lmsys_trace
from repro.workloads.sessions import WorkloadParams

CAPACITY_BYTES = int(2e9)
N_SESSIONS = 60
N_WORKERS = 4
REPEATS = 3  # best-of to shave scheduler noise

# Floor set ~30% below the container measurement (~0.9k req/s with
# per-token event-loop yields); generous enough for loaded CI runners,
# tight enough to catch a hot-path regression that serializes the pool.
FLOOR_REQUESTS_PER_S = 300.0

BENCH_PATH = OUT_DIR / "BENCH_gateway.json"


def _trace():
    return generate_lmsys_trace(
        WorkloadParams(n_sessions=N_SESSIONS, session_rate=2.0, mean_think_s=3.0, seed=31)
    )


async def _replay_once(trace):
    cache = MarconiCache(hybrid_7b(), CAPACITY_BYTES, eviction="flop_aware", alpha=1.0)
    gateway = Gateway(
        CacheOnlyServer(cache),
        GatewayConfig(n_workers=N_WORKERS, max_queue_depth=10_000),
    )
    start = time.perf_counter()
    report = await TraceReplayer(gateway, speed=None).run(trace)
    wall = time.perf_counter() - start
    await gateway.close()
    assert cache.open_sessions == 0
    assert all(n.pin_count == 0 for n in cache.tree.iter_nodes())
    return wall, report


@pytest.fixture(scope="module")
def measurements():
    trace = _trace()
    asyncio.run(_replay_once(trace))  # untimed warmup
    best_wall, best_report = None, None
    for _ in range(REPEATS):
        wall, report = asyncio.run(_replay_once(trace))
        if best_wall is None or wall < best_wall:
            best_wall, best_report = wall, report
    ttfts = [r.ttft_seconds for r in best_report.records if r.status == "served"]
    return {
        "n_requests": trace.n_requests,
        "n_sessions": trace.n_sessions,
        "wall_seconds": best_wall,
        "requests_per_second": trace.n_requests / best_wall,
        "ttft_p50_seconds": percentile(ttfts, 50),
        "ttft_p95_seconds": percentile(ttfts, 95),
        "report": best_report,
    }


class TestGatewayMicrobench:
    def test_replay_accounting_closes(self, measurements):
        """Every trace round is served — nothing shed, aborted, or lost —
        and gateway counters agree with the replay report."""
        report = measurements["report"]
        assert report.served == measurements["n_requests"]
        assert report.shed == 0 and report.abandoned_rounds == 0
        stats = report.gateway_stats
        assert stats["completed"] == report.served
        assert stats["failed"] == 0 and stats["aborted"] == 0

    def test_throughput_floor(self, measurements):
        """The perf gate: sustained gateway throughput stays above the
        floor.  Skipped on single-core runners, where the event loop and
        the test harness contend for one CPU and the number measures the
        machine rather than the code."""
        if (os.cpu_count() or 1) < 2:
            pytest.skip("needs >= 2 cores for a meaningful throughput floor")
        rps = measurements["requests_per_second"]
        assert rps >= FLOOR_REQUESTS_PER_S, (
            f"gateway throughput {rps:.0f} req/s below floor "
            f"{FLOOR_REQUESTS_PER_S:.0f} req/s "
            f"(wall {measurements['wall_seconds']:.2f}s for "
            f"{measurements['n_requests']} requests)"
        )

    def test_emit_bench_json(self, measurements):
        """Persist the perf snapshot."""
        payload = {
            "capacity_bytes": CAPACITY_BYTES,
            "trace": {"kind": "lmsys", "n_sessions": N_SESSIONS, "seed": 31},
            "n_workers": N_WORKERS,
            "n_requests": measurements["n_requests"],
            "wall_seconds": measurements["wall_seconds"],
            "requests_per_second": measurements["requests_per_second"],
            "ttft_p50_seconds": measurements["ttft_p50_seconds"],
            "ttft_p95_seconds": measurements["ttft_p95_seconds"],
            "floor_requests_per_second": FLOOR_REQUESTS_PER_S,
            "token_hit_rate": measurements["report"].token_hit_rate,
        }
        write_bench(BENCH_PATH, "gateway_replay_throughput", payload)
        assert BENCH_PATH.exists()
