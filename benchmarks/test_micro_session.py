"""Microbenchmark: session-API overhead vs the legacy lookup/admit path.

The request-session redesign routes every request through a
:class:`~repro.core.interfaces.RequestSession` object (state machine, open-
session registry, GC safety net).  This bench replays the same trace through
the same cache twice — once driving ``begin``/``commit`` directly, once
through the deprecated ``lookup``/``admit`` shims — and measures the
per-request cost of the transactional surface.

Acceptance bar: session overhead < 5% per request.  Results are written to
``benchmarks/out/BENCH_session.json`` (git-ignored; CI uploads it).
This file is deliberately fast (seconds) and stays in the default test lane.
"""

from __future__ import annotations

import time

import pytest

from _bench_io import OUT_DIR, write_bench
from repro.core.cache import MarconiCache
from repro.models.presets import hybrid_7b
from repro.workloads.lmsys import generate_lmsys_trace
from repro.workloads.sessions import WorkloadParams

CAPACITY_BYTES = int(2e9)
N_SESSIONS = 100
REPEATS = 3  # best-of to shave scheduler noise

BENCH_PATH = OUT_DIR / "BENCH_session.json"


@pytest.fixture(scope="module")
def requests():
    trace = generate_lmsys_trace(
        WorkloadParams(n_sessions=N_SESSIONS, session_rate=2.0, mean_think_s=3.0, seed=23)
    )
    return list(trace.iter_requests_nominal())


def _fresh_cache() -> MarconiCache:
    return MarconiCache(hybrid_7b(), CAPACITY_BYTES, eviction="flop_aware", alpha=1.0)


def _run_session_api(requests):
    cache = _fresh_cache()
    start = time.perf_counter()
    for now, _, _, inp, full in requests:
        session = cache.begin(inp, now)
        session.commit(full, now)
    wall = time.perf_counter() - start
    return wall, cache


def _run_legacy_api(requests):
    cache = _fresh_cache()
    start = time.perf_counter()
    for now, _, _, inp, full in requests:
        result = cache.lookup(inp, now)
        cache.admit(full, now, handle=result.handle)
    wall = time.perf_counter() - start
    return wall, cache


@pytest.fixture(scope="module")
def measurements(requests):
    # Untimed warmup of both paths so neither pays one-time import/JIT-warm
    # costs inside its measured window.
    _run_session_api(requests)
    _run_legacy_api(requests)
    session_walls, legacy_walls = [], []
    session_cache = legacy_cache = None
    for _ in range(REPEATS):
        wall, session_cache = _run_session_api(requests)
        session_walls.append(wall)
        wall, legacy_cache = _run_legacy_api(requests)
        legacy_walls.append(wall)
    return {
        "n_requests": len(requests),
        "session_wall": min(session_walls),
        "legacy_wall": min(legacy_walls),
        "session_stats": session_cache.stats.snapshot(),
        "legacy_stats": legacy_cache.stats.snapshot(),
        "session_open": session_cache.open_sessions,
        "legacy_open": legacy_cache.open_sessions,
    }


class TestSessionMicrobench:
    def test_paths_byte_identical(self, measurements):
        """Both surfaces must produce the same CacheStats on replay."""
        assert measurements["session_stats"] == measurements["legacy_stats"]
        assert measurements["session_open"] == 0
        assert measurements["legacy_open"] == 0

    def test_session_overhead_under_5_percent(self, measurements):
        """The acceptance bar: the transactional surface costs < 5% per
        request over the legacy two-phase shims (which share the same
        underlying session machinery, so this guards against the session
        layer growing hidden per-request work).  A tiny absolute delta per
        request also passes, so scheduler noise on loaded CI runners cannot
        flip the ratio on a sub-millisecond measurement."""
        n = measurements["n_requests"]
        session = measurements["session_wall"]
        legacy = measurements["legacy_wall"]
        overhead = session / legacy - 1.0
        delta_us = 1e6 * (session - legacy) / n
        assert overhead < 0.05 or delta_us < 25.0, (
            f"session API {1e3 * session:.1f} ms vs legacy {1e3 * legacy:.1f} ms "
            f"({100 * overhead:+.1f}%, {delta_us:+.1f} us/request overhead)"
        )

    def test_emit_bench_json(self, measurements):
        """Persist the perf snapshot."""
        n = measurements["n_requests"]
        payload = {
            "capacity_bytes": CAPACITY_BYTES,
            "trace": {"kind": "lmsys", "n_sessions": N_SESSIONS, "seed": 23},
            "n_requests": n,
            "session_wall_seconds": measurements["session_wall"],
            "legacy_wall_seconds": measurements["legacy_wall"],
            "session_us_per_request": 1e6 * measurements["session_wall"] / n,
            "legacy_us_per_request": 1e6 * measurements["legacy_wall"] / n,
            "overhead_fraction": measurements["session_wall"]
            / measurements["legacy_wall"]
            - 1.0,
            "stats_identical": measurements["session_stats"]
            == measurements["legacy_stats"],
        }
        write_bench(BENCH_PATH, "session_api_vs_legacy_shims", payload)
        assert BENCH_PATH.exists()
