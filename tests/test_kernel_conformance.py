"""Differential conformance: kernel-backed engines vs the frozen legacy loops.

The unified simulation kernel (``repro/engine/kernel.py``) replaced three
independently maintained scheduling loops.  This suite replays identical
traces through the kernel-backed engines and the pre-refactor reference
implementations (frozen in ``tests/_legacy_engines.py``) and asserts the
transcripts are *byte-identical*: every ``RequestRecord`` field (dataclass
equality → exact float equality), the cache-stats snapshots, routed
counts, busy seconds, iteration counts, and TBT gap streams.

Coverage axes: three workload shapes (queueing-heavy LMSys, a bursty
same-instant-arrival trace, a zero-think multi-round trace), two cache
policies (Marconi under eviction pressure, vanilla), serving concurrency
``n_executors ∈ {1, 4}``, iteration configs with fine/coarse chunking,
and clusters of 1-3 replicas under three router families.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _legacy_engines import (
    legacy_simulate_cluster,
    legacy_simulate_trace,
    legacy_simulate_trace_iteration,
)
from repro.baselines.vanilla import VanillaCache
from repro.cluster import (
    LeastLoadedRouter,
    PrefixAffinityRouter,
    RoundRobinRouter,
    simulate_cluster,
)
from repro.core.cache import MarconiCache
from repro.engine.iteration import IterationConfig, simulate_trace_iteration
from repro.engine.server import simulate_trace
from repro.models.memory import node_state_bytes
from repro.models.presets import hybrid_7b
from repro.workloads.lmsys import generate_lmsys_trace
from repro.workloads.trace import Trace, TraceRound, TraceSession

MODEL = hybrid_7b()


def _session(session_id, arrival, rounds, thinks=None):
    trace_rounds = [
        TraceRound(
            new_input_tokens=np.asarray(i, dtype=np.int32),
            output_tokens=np.asarray(o, dtype=np.int32),
        )
        for i, o in rounds
    ]
    if thinks is None:
        thinks = [0.0] + [1.0] * (len(rounds) - 1)
    return TraceSession(
        session_id=session_id,
        arrival_time=arrival,
        rounds=trace_rounds,
        think_times=thinks,
    )


def _rand_round(seed, n_in, n_out):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 2000, n_in).tolist(),
        rng.integers(0, 2000, n_out).tolist(),
    )


def _lmsys_trace() -> Trace:
    # High session rate so the FCFS queue actually builds depth.
    return generate_lmsys_trace(
        n_sessions=14, seed=93, session_rate=4.0, mean_think_s=1.0
    )


def _bursty_trace() -> Trace:
    """Waves of same-instant arrivals: the tie-break torture test."""
    sessions = []
    sid = 0
    for wave, t in enumerate([0.0, 0.0, 2.5, 2.5, 2.5, 7.0, 7.0, 7.0]):
        sessions.append(
            _session(
                sid,
                t,
                [
                    _rand_round(100 * wave + sid, 300 + 40 * sid, 50),
                    _rand_round(200 * wave + sid, 80, 60),
                ],
            )
        )
        sid += 1
    return Trace(name="bursty", seed=0, sessions=sessions)


def _zero_think_trace() -> Trace:
    """Next rounds arriving exactly at decode end (equal-timestamp events)."""
    sessions = [
        _session(
            0,
            0.0,
            [_rand_round(7, 200, 30), _rand_round(8, 50, 1), _rand_round(9, 40, 25)],
            thinks=[0.0, 0.0, 0.0],
        ),
        _session(1, 0.0, [_rand_round(10, 150, 1)], thinks=[0.0]),
        _session(2, 0.1, [_rand_round(11, 90, 20), _rand_round(12, 30, 10)],
                 thinks=[0.0, 0.0]),
    ]
    return Trace(name="zero-think", seed=0, sessions=sessions)


TRACES = {
    "lmsys": _lmsys_trace,
    "bursty": _bursty_trace,
    "zero_think": _zero_think_trace,
}


def _marconi():
    # Small enough that eviction fires during the replay.
    return MarconiCache(MODEL, 6 * node_state_bytes(MODEL, 2000, True), alpha=1.0)


def _vanilla():
    return VanillaCache(MODEL)


CACHES = {"marconi": _marconi, "vanilla": _vanilla}


def _assert_engine_results_identical(kernel_result, legacy_result):
    assert len(kernel_result.records) == len(legacy_result.records)
    # Dataclass equality is exact per-field (floats compared bit-for-bit).
    assert kernel_result.records == legacy_result.records
    assert [r.ttft for r in kernel_result.records] == [
        r.ttft for r in legacy_result.records
    ]
    assert kernel_result.cache_stats == legacy_result.cache_stats


class TestServingConformance:
    @pytest.mark.parametrize("trace_name", sorted(TRACES))
    @pytest.mark.parametrize("cache_name", sorted(CACHES))
    @pytest.mark.parametrize("n_executors", [1, 4])
    def test_matches_legacy(self, trace_name, cache_name, n_executors):
        trace = TRACES[trace_name]()
        kernel_result = simulate_trace(
            MODEL, CACHES[cache_name](), trace, n_executors=n_executors
        )
        legacy_result = legacy_simulate_trace(
            MODEL, CACHES[cache_name](), trace, n_executors=n_executors
        )
        _assert_engine_results_identical(kernel_result, legacy_result)

    def test_no_open_sessions_after_run(self):
        cache = _marconi()
        simulate_trace(MODEL, cache, _bursty_trace(), n_executors=2)
        assert cache.open_sessions == 0

    @given(
        order=st.permutations(range(8)),
        arrivals=st.lists(st.sampled_from([0.0, 0.5, 2.5]), min_size=8, max_size=8),
        n_executors=st.sampled_from([1, 4]),
    )
    @settings(max_examples=25, deadline=None)
    def test_unsorted_tied_arrivals_match_legacy(self, order, arrivals, n_executors):
        """The kernel pulls sessions in a stable sort by arrival time; the
        legacy loop pushes the list as given.  Shuffled lists with forced
        duplicate arrival times must still agree record for record (the
        goldens only hold sorted, tie-free arrivals)."""
        sessions = _bursty_trace().sessions
        for session, arrival in zip(sessions, arrivals):
            session.arrival_time = arrival
        trace = Trace(name="shuffled", seed=0, sessions=[sessions[i] for i in order])
        kernel_result = simulate_trace(
            MODEL, _marconi(), trace, n_executors=n_executors
        )
        legacy_result = legacy_simulate_trace(
            MODEL, _marconi(), trace, n_executors=n_executors
        )
        _assert_engine_results_identical(kernel_result, legacy_result)


class TestIterationConformance:
    @pytest.mark.parametrize("trace_name", sorted(TRACES))
    @pytest.mark.parametrize("cache_name", sorted(CACHES))
    @pytest.mark.parametrize(
        "config",
        [
            IterationConfig(),
            IterationConfig(token_budget=64, max_batch=2),
            IterationConfig(token_budget=4096, max_batch=1),
        ],
        ids=["default", "fine", "coarse"],
    )
    def test_matches_legacy(self, trace_name, cache_name, config):
        trace = TRACES[trace_name]()
        kernel_result = simulate_trace_iteration(
            MODEL, CACHES[cache_name](), trace, config=config
        )
        legacy_result = legacy_simulate_trace_iteration(
            MODEL, CACHES[cache_name](), trace, config=config
        )
        _assert_engine_results_identical(kernel_result, legacy_result)
        assert kernel_result.n_iterations == legacy_result.n_iterations
        assert kernel_result.tbt_gaps == legacy_result.tbt_gaps


class TestClusterConformance:
    @pytest.mark.parametrize("trace_name", sorted(TRACES))
    @pytest.mark.parametrize("n_replicas", [1, 2, 3])
    @pytest.mark.parametrize(
        "router_factory",
        [RoundRobinRouter, LeastLoadedRouter, PrefixAffinityRouter],
        ids=["round_robin", "least_loaded", "prefix_affinity"],
    )
    def test_matches_legacy(self, trace_name, n_replicas, router_factory):
        trace = TRACES[trace_name]()
        caches = lambda: [_marconi() for _ in range(n_replicas)]  # noqa: E731
        kernel_result = simulate_cluster(MODEL, caches(), router_factory(), trace)
        legacy_result = legacy_simulate_cluster(MODEL, caches(), router_factory(), trace)
        assert kernel_result.routed_counts == legacy_result.routed_counts
        assert kernel_result.busy_seconds == legacy_result.busy_seconds
        for kernel_replica, legacy_replica in zip(
            kernel_result.replica_results, legacy_result.replica_results
        ):
            _assert_engine_results_identical(kernel_replica, legacy_replica)

    def test_cluster_equals_serving_at_one_replica(self):
        """The two kernel configurations coincide at R=1, max_running=1."""
        trace = _lmsys_trace()
        single = simulate_trace(MODEL, _marconi(), trace)
        cluster = simulate_cluster(MODEL, [_marconi()], RoundRobinRouter(), trace)
        assert cluster.replica_results[0].records == single.records
        assert cluster.replica_results[0].cache_stats == single.cache_stats


class TestKernelNewCapabilities:
    """What the kernel adds beyond the legacy loops."""

    def test_timeseries_populated_and_monotone(self):
        result = simulate_trace(MODEL, _marconi(), _bursty_trace(), n_executors=2)
        assert result.queue_depth_series and result.running_series
        for series in (result.queue_depth_series, result.running_series):
            times = [t for t, _ in series]
            assert times == sorted(times)
        assert result.peak_queue_depth() > 0
        assert 0.0 <= result.executor_utilization() <= 1.0

    def test_more_executors_raise_concurrency_on_bursty_trace(self):
        trace = _bursty_trace()
        serial = simulate_trace(MODEL, _marconi(), trace, n_executors=1)
        batched = simulate_trace(MODEL, _marconi(), trace, n_executors=4)
        # Continuous batching actually occupies the extra slots...
        assert batched.mean_running() > serial.mean_running()
        # ...and burns down the backlog.
        assert batched.mean_queue_depth() < serial.mean_queue_depth()

    def test_cluster_max_running_speeds_up_bursts(self):
        trace = _bursty_trace()
        slow = simulate_cluster(MODEL, [_marconi()], RoundRobinRouter(), trace)
        fast = simulate_cluster(
            MODEL, [_marconi()], RoundRobinRouter(), trace, max_running=4
        )
        assert fast.ttft_percentile(95) < slow.ttft_percentile(95)
        assert fast.replica_results[0].max_running == 4
