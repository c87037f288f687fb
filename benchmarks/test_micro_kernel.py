"""Microbenchmark: unified-kernel event throughput vs the legacy loop.

The simulation kernel replaced the hand-rolled single-engine loop in
``repro/engine/server.py``; the acceptance bar is that driving the same
trace through the kernel-backed engine costs at most ~5% more wall time
per simulated event than the frozen legacy loop (``tests/_legacy_engines``)
— the kernel adds a scheduler indirection and change-point telemetry, and
this bench keeps that overhead honest.

It also demonstrates what the kernel newly enables: on a bursty trace,
``max_running=4`` continuous batching occupies the extra executor slots
(time-weighted mean busy executors well above the single-slot ceiling of
1.0) and burns the backlog down faster than the serial configuration.

Results are written to
``benchmarks/out/BENCH_kernel.json`` (git-ignored; CI uploads it).
This file is deliberately fast (seconds)
and stays in the default test lane.
"""

from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from _bench_io import OUT_DIR, write_bench
from repro.core.cache import MarconiCache
from repro.engine.kernel import KernelConfig, SimulationKernel
from repro.models.memory import node_state_bytes
from repro.models.presets import hybrid_7b
from repro.workloads.lmsys import generate_lmsys_trace
from repro.workloads.trace import Trace, TraceRound, TraceSession

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = OUT_DIR / "BENCH_kernel.json"

N_SESSIONS = 120
REPEATS = 3  # best-of to shave scheduler noise
MODEL = hybrid_7b()


def _load_legacy_engines():
    """Load the frozen pre-kernel reference loops by file path (they live
    in tests/, which is not importable from the benchmarks rootdir)."""
    path = REPO_ROOT / "tests" / "_legacy_engines.py"
    spec = importlib.util.spec_from_file_location("_legacy_engines_bench", path)
    module = importlib.util.module_from_spec(spec)
    # Dataclass processing resolves the defining module through sys.modules,
    # so the module must be registered before execution.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


LEGACY = _load_legacy_engines()


@pytest.fixture(scope="module")
def trace() -> Trace:
    return generate_lmsys_trace(
        n_sessions=N_SESSIONS, session_rate=3.0, mean_think_s=2.0, seed=37
    )


def _fresh_cache() -> MarconiCache:
    return MarconiCache(
        MODEL, 24 * node_state_bytes(MODEL, 2000, True), alpha=1.0
    )


def _run_kernel(trace: Trace) -> tuple[float, int]:
    cache = _fresh_cache()
    kernel = SimulationKernel(
        MODEL, [cache], config=KernelConfig(max_running=1), policy_names=["kernel"]
    )
    start = time.perf_counter()
    run = kernel.run(trace)
    wall = time.perf_counter() - start
    return wall, run.n_events


def _run_legacy(trace: Trace) -> tuple[float, int]:
    cache = _fresh_cache()
    engine = LEGACY.LegacyServingSimulator(MODEL, cache, policy_name="legacy")
    start = time.perf_counter()
    result = engine.run(trace)
    wall = time.perf_counter() - start
    # The legacy loop processes exactly three events per served request.
    return wall, 3 * len(result.records)


@pytest.fixture(scope="module")
def measurements(trace):
    # Untimed warmup so neither path pays one-time import costs in-window.
    _run_kernel(trace)
    _run_legacy(trace)
    kernel_walls, legacy_walls = [], []
    kernel_events = legacy_events = 0
    for _ in range(REPEATS):
        wall, kernel_events = _run_kernel(trace)
        kernel_walls.append(wall)
        wall, legacy_events = _run_legacy(trace)
        legacy_walls.append(wall)
    return {
        "kernel_wall": min(kernel_walls),
        "legacy_wall": min(legacy_walls),
        "kernel_events": kernel_events,
        "legacy_events": legacy_events,
    }


def _bursty_trace() -> Trace:
    """Synchronized waves of long-prefill sessions: a queue-depth stressor."""
    rng = np.random.default_rng(11)
    sessions = []
    sid = 0
    for wave_start in (0.0, 0.5, 1.0, 1.5):
        for _ in range(8):
            rounds = [
                TraceRound(
                    rng.integers(0, 2000, 1500).astype(np.int32),
                    rng.integers(0, 2000, 40).astype(np.int32),
                )
            ]
            sessions.append(
                TraceSession(
                    session_id=sid,
                    arrival_time=wave_start,
                    rounds=rounds,
                    think_times=[0.0],
                )
            )
            sid += 1
    return Trace(name="bursty-bench", seed=11, sessions=sessions)


@pytest.fixture(scope="module")
def burst_results():
    from repro.engine.server import simulate_trace

    trace = _bursty_trace()
    serial = simulate_trace(MODEL, _fresh_cache(), trace, n_executors=1)
    batched = simulate_trace(MODEL, _fresh_cache(), trace, n_executors=4)
    return serial, batched


class TestKernelMicrobench:
    def test_event_throughput_within_5_percent(self, measurements):
        """Acceptance bar: kernel event processing regresses <= ~5% vs the
        legacy loop.  A tiny absolute per-event delta also passes, so
        scheduler noise on loaded CI runners cannot flip the ratio on a
        sub-millisecond measurement."""
        assert measurements["kernel_events"] == measurements["legacy_events"]
        kernel = measurements["kernel_wall"]
        legacy = measurements["legacy_wall"]
        overhead = kernel / legacy - 1.0
        delta_us = 1e6 * (kernel - legacy) / measurements["kernel_events"]
        assert overhead < 0.05 or delta_us < 15.0, (
            f"kernel {1e3 * kernel:.1f} ms vs legacy {1e3 * legacy:.1f} ms "
            f"({100 * overhead:+.1f}%, {delta_us:+.2f} us/event overhead)"
        )

    def test_continuous_batching_raises_executor_occupancy(self, burst_results):
        """max_running=4 on a bursty trace keeps >1 executor busy on
        average (the extra slots are genuinely used) and drains the
        backlog faster than the serial configuration."""
        serial, batched = burst_results
        assert serial.mean_running() <= 1.0 + 1e-9
        assert batched.mean_running() > 1.5 * serial.mean_running()
        assert batched.mean_queue_depth() < serial.mean_queue_depth()
        assert batched.ttft_percentile(95) < serial.ttft_percentile(95)

    def test_emit_bench_json(self, measurements, burst_results):
        """Persist the perf snapshot."""
        serial, batched = burst_results
        kernel = measurements["kernel_wall"]
        legacy = measurements["legacy_wall"]
        n_events = measurements["kernel_events"]
        payload = {
            "trace": {"kind": "lmsys", "n_sessions": N_SESSIONS, "seed": 37},
            "n_events": n_events,
            "kernel_wall_seconds": kernel,
            "legacy_wall_seconds": legacy,
            "kernel_events_per_second": n_events / kernel,
            "legacy_events_per_second": n_events / legacy,
            "overhead_fraction": kernel / legacy - 1.0,
            "burst_demo": {
                "trace": "bursty-bench (4 waves 0.5s apart x 8 sessions, "
                "1500-token prefills)",
                "mean_busy_executors_max_running_1": serial.mean_running(),
                "mean_busy_executors_max_running_4": batched.mean_running(),
                "executor_utilization_max_running_1": serial.executor_utilization(),
                "executor_utilization_max_running_4": batched.executor_utilization(),
                "mean_queue_depth_max_running_1": serial.mean_queue_depth(),
                "mean_queue_depth_max_running_4": batched.mean_queue_depth(),
                "p95_ttft_s_max_running_1": serial.ttft_percentile(95),
                "p95_ttft_s_max_running_4": batched.ttft_percentile(95),
            },
        }
        write_bench(BENCH_PATH, "kernel_event_throughput_vs_legacy_loop", payload)
        assert BENCH_PATH.exists()
