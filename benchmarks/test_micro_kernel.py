"""Microbenchmark: unified-kernel event throughput, and what the kernel's
continuous batching buys on a burst.

On an lmsys trace the kernel's simulated events per second are recorded
(best of a few runs; no floor: ``requests_per_s`` in ``bench_e2e`` is the
host-normalized number).  On a bursty trace ``max_running=4`` continuous
batching occupies the extra executor slots (time-weighted mean busy
executors well above the single-slot ceiling of 1.0) and burns the
backlog down faster than the serial configuration.

Results are written to
``benchmarks/out/BENCH_kernel.json`` (git-ignored; CI uploads it).
This file is deliberately fast (seconds)
and stays in the default test lane.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _bench_io import OUT_DIR, write_bench
from repro.core.cache import MarconiCache
from repro.engine.kernel import KernelConfig, SimulationKernel
from repro.models.memory import node_state_bytes
from repro.models.presets import hybrid_7b
from repro.workloads.lmsys import generate_lmsys_trace
from repro.workloads.trace import Trace, TraceRound, TraceSession

BENCH_PATH = OUT_DIR / "BENCH_kernel.json"

N_SESSIONS = 120
REPEATS = 3  # best-of to shave scheduler noise
MODEL = hybrid_7b()


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
    def test_continuous_batching_raises_executor_occupancy(self, burst_results):
        """max_running=4 on a bursty trace keeps >1 executor busy on
        average (the extra slots are genuinely used) and drains the
        backlog faster than the serial configuration."""
        serial, batched = burst_results
        assert serial.mean_running() <= 1.0 + 1e-9
        assert batched.mean_running() > 1.5 * serial.mean_running()
        assert batched.mean_queue_depth() < serial.mean_queue_depth()
        assert batched.ttft_percentile(95) < serial.ttft_percentile(95)

    def test_emit_bench_json(self, trace):
        """Persist the kernel's events per second (best of a few runs)."""
        _run_kernel(trace)  # untimed warmup: one-time import costs stay out
        wall, n_events = min(_run_kernel(trace) for _ in range(REPEATS))
        payload = {
            "trace": {"kind": "lmsys", "n_sessions": N_SESSIONS, "seed": 37},
            "n_events": n_events,
            "kernel_wall_seconds": wall,
            "kernel_events_per_second": n_events / wall,
        }
        write_bench(BENCH_PATH, "kernel_event_throughput", payload)
        assert BENCH_PATH.exists()
