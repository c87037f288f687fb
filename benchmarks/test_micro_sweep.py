"""Microbenchmark: parallel sweep wall-clock and streaming memory bounds.

Two claims of the streaming + parallel experiment subsystem, kept honest:

* **Sweep parallelism** — ``run_specs`` over a process pool returns
  result-identical output to the serial path; on a multi-core host the
  4-worker wall-clock beats serial by >= 2x (the speedup assertion is
  gated on ``os.cpu_count() >= 4`` — single-core CI boxes still verify
  equivalence and record both wall-clocks).
* **Streaming memory** — consuming a 100k-session ``TraceStream`` peaks
  *below* the RSS of materializing a 4x smaller ``Trace``: stream memory
  is bounded by the active window, not the trace length.  Measured in
  fresh subprocesses via ``/proc/self/status`` ``VmHWM`` (which resets
  on exec, unlike ``ru_maxrss``, which children inherit from the fat
  pytest parent) so earlier tests' high-water marks cannot mask the
  comparison.

Results are written to
``benchmarks/out/BENCH_sweep.json`` (git-ignored; CI uploads it).
This file stays in the default fast lane.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from _bench_io import OUT_DIR, write_bench
from repro.experiments.parallel import run_specs
from repro.experiments.runner import clear_result_cache, clear_trace_cache
from repro.experiments.sweeps import sweep_specs

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = OUT_DIR / "BENCH_sweep.json"

SWEEP_POLICIES = ("sglang+", "marconi")
N_WORKERS = 4
STREAM_SESSIONS = 100_000
MATERIALIZE_SESSIONS = 25_000

# The memory probes run in fresh interpreters: a tiny-session shape keeps
# 100k-session generation in benchmark territory (seconds), while the
# stream-vs-materialize RSS comparison is shape-independent.
_MEMORY_PROBE = """
import resource, sys
from repro.workloads.distributions import GeometricCount, LogNormalLength
from repro.workloads.sessions import SessionShape, WorkloadParams, build_trace, stream_trace


def peak_rss_kb():
    # /proc VmHWM resets on exec; getrusage ru_maxrss is *inherited*
    # across fork+exec, so under a fat parent (the pytest process) it
    # floors at the parent's peak and masks the comparison.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

shape = SessionShape(
    name="bench-micro",
    rounds=GeometricCount(mean=2.0, minimum=1, maximum=4),
    first_turn=LogNormalLength(median=24, sigma=0.5, minimum=4, maximum=128),
    later_turn=LogNormalLength(median=16, sigma=0.5, minimum=4, maximum=64),
    output=LogNormalLength(median=24, sigma=0.5, minimum=8, maximum=96),
    shared_prefix_prob=0.5,
    n_templates=8,
    template_length=LogNormalLength(median=48, sigma=0.3, minimum=16, maximum=128),
)
mode, n = sys.argv[1], int(sys.argv[2])
params = WorkloadParams(n_sessions=n, seed=1, session_rate=50.0, mean_think_s=0.5)
sessions = tokens = 0
if mode == "stream":
    for s in stream_trace(shape, params).iter_sessions():
        sessions += 1
        for r in s.rounds:
            tokens += len(r.new_input_tokens) + len(r.output_tokens)
else:
    trace = build_trace(shape, params)
    sessions = trace.n_sessions
    tokens = int(trace.total_input_tokens)
print(sessions, tokens, peak_rss_kb())
"""


def _probe_memory(mode: str, n_sessions: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _MEMORY_PROBE, mode, str(n_sessions)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    )
    wall = time.perf_counter() - started
    sessions, tokens, peak_kb = proc.stdout.split()
    return {
        "mode": mode,
        "n_sessions": int(sessions),
        "n_tokens": int(tokens),
        "peak_rss_mb": int(peak_kb) / 1024.0,
        "wall_seconds": wall,
    }


@pytest.fixture(scope="module")
def sweep_measurements():
    specs = sweep_specs("sharegpt", "smoke", policies=SWEEP_POLICIES)
    # Parallel first: pool workers start cold by construction.  Clearing
    # the parent's caches before the serial pass keeps it equally cold
    # (other benchmark modules may have warmed them in-process).
    clear_result_cache()
    clear_trace_cache()
    started = time.perf_counter()
    parallel = run_specs(specs, n_workers=N_WORKERS)
    parallel_wall = time.perf_counter() - started
    clear_result_cache()
    clear_trace_cache()
    started = time.perf_counter()
    serial = run_specs(specs, n_workers=1)
    serial_wall = time.perf_counter() - started
    return {
        "specs": specs,
        "serial": serial,
        "parallel": parallel,
        "serial_wall": serial_wall,
        "parallel_wall": parallel_wall,
    }


@pytest.fixture(scope="module")
def memory_measurements():
    streamed = _probe_memory("stream", STREAM_SESSIONS)
    materialized = _probe_memory("materialize", MATERIALIZE_SESSIONS)
    return {"streamed": streamed, "materialized": materialized}


class TestSweepMicrobench:
    def test_parallel_results_identical_to_serial(self, sweep_measurements):
        serial = sweep_measurements["serial"]
        parallel = sweep_measurements["parallel"]
        assert len(serial) == len(parallel) == len(sweep_measurements["specs"])
        for a, b in zip(serial, parallel):
            assert [asdict(r) for r in a.records] == [asdict(r) for r in b.records]
            assert a.cache_stats == b.cache_stats

    def test_parallel_speedup_on_multicore(self, sweep_measurements):
        """>= 2x on 4 workers — only assertable where 4 cores exist."""
        cores = os.cpu_count() or 1
        speedup = (
            sweep_measurements["serial_wall"] / sweep_measurements["parallel_wall"]
        )
        if cores < 4:
            pytest.skip(
                f"host has {cores} core(s); speedup recorded "
                f"({speedup:.2f}x) but not asserted"
            )
        assert speedup >= 2.0, (
            f"expected >= 2x on {cores} cores, measured {speedup:.2f}x "
            f"(serial {sweep_measurements['serial_wall']:.2f}s, "
            f"parallel {sweep_measurements['parallel_wall']:.2f}s)"
        )

    def test_streaming_memory_stays_bounded(self, memory_measurements):
        """Streaming 100k sessions peaks below materializing 25k."""
        streamed = memory_measurements["streamed"]
        materialized = memory_measurements["materialized"]
        assert streamed["n_sessions"] == STREAM_SESSIONS
        assert materialized["n_sessions"] == MATERIALIZE_SESSIONS
        assert streamed["peak_rss_mb"] < materialized["peak_rss_mb"], (
            f"streaming {STREAM_SESSIONS} sessions peaked at "
            f"{streamed['peak_rss_mb']:.0f} MB, above materializing "
            f"{MATERIALIZE_SESSIONS} at {materialized['peak_rss_mb']:.0f} MB"
        )

    def test_emit_bench_json(self, sweep_measurements, memory_measurements):
        """Persist the perf snapshot."""
        serial_wall = sweep_measurements["serial_wall"]
        parallel_wall = sweep_measurements["parallel_wall"]
        streamed = memory_measurements["streamed"]
        materialized = memory_measurements["materialized"]
        payload = {
            "sweep": {
                "dataset": "sharegpt",
                "scale": "smoke",
                "policies": list(SWEEP_POLICIES),
                "n_specs": len(sweep_measurements["specs"]),
                "n_workers": N_WORKERS,
                "cpu_count": os.cpu_count() or 1,
                "serial_wall_seconds": serial_wall,
                "parallel_wall_seconds": parallel_wall,
                "speedup": serial_wall / parallel_wall,
            },
            "streaming_memory": {
                "streamed": streamed,
                "materialized": materialized,
                "rss_ratio_streamed_over_materialized": (
                    streamed["peak_rss_mb"] / materialized["peak_rss_mb"]
                ),
            },
        }
        write_bench(BENCH_PATH, "parallel_sweep_and_streaming_memory", payload)
        assert BENCH_PATH.exists()
