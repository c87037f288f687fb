"""Property tests for the simulation kernel and its event queue.

Five kernel invariants, checked over hypothesis-generated traces and
replica counts (that the kernel and the schedulers meet only at the surface
``ReplicaScheduler`` writes down is read off the source in
``tests/test_source_boundaries.py``):

* event-queue ordering is *total* — equal-timestamp events pop in
  ``(kind, per-queue insertion order)``, independent of payloads and of
  any other queue living in the same process (the tie-break bug fix);
* the virtual clock is monotone and refuses to run backwards;
* no cache session is left open once the kernel drains;
* replay is deterministic — the same (trace, seed, config) produces an
  identical ``RequestRecord`` stream, run after run, engine after engine;
* sessions are pulled in a stable sort by arrival, so a shuffled list
  with tied arrivals replays as the same list sorted.

What the kernel decides on the decision digest's traces is frozen by
``tests/test_decision_digest.py``; the checks at the end run on the same
traces and state what no digest does: drains, equalities between engine
configurations, and what continuous batching buys.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.vanilla import VanillaCache
from repro.cluster import RoundRobinRouter, simulate_cluster
from repro.core.cache import MarconiCache
from repro.engine.events import ENTRY_PAYLOAD, ENTRY_SEQ, EventKind, EventQueue
from repro.engine.iteration import IterationConfig, simulate_trace_iteration
from repro.engine.kernel import KernelConfig, SimulationKernel, VirtualClock
from repro.engine.server import simulate_trace
from repro.models.memory import node_state_bytes
from repro.models.presets import hybrid_7b
from repro.workloads.trace import Trace, TraceRound, TraceSession

from _decisions import matrix_trace
from _decisions import marconi as evicting_marconi

MODEL = hybrid_7b()


# ----------------------------------------------------------------------
# Random-trace strategy
# ----------------------------------------------------------------------
@st.composite
def traces(draw):
    n_sessions = draw(st.integers(min_value=1, max_value=5))
    sessions = []
    for sid in range(n_sessions):
        arrival = draw(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False, width=32)
        )
        n_rounds = draw(st.integers(min_value=1, max_value=3))
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        rng = np.random.default_rng(seed)
        rounds = [
            TraceRound(
                new_input_tokens=rng.integers(
                    0, 500, draw(st.integers(min_value=1, max_value=120))
                ).astype(np.int32),
                output_tokens=rng.integers(
                    0, 500, draw(st.integers(min_value=1, max_value=40))
                ).astype(np.int32),
            )
            for _ in range(n_rounds)
        ]
        thinks = [0.0] + [
            draw(st.sampled_from([0.0, 0.5, 2.0])) for _ in range(n_rounds - 1)
        ]
        sessions.append(
            TraceSession(
                session_id=sid,
                arrival_time=float(arrival),
                rounds=rounds,
                think_times=thinks,
            )
        )
    return Trace(name="hypothesis", seed=0, sessions=sessions)


def _marconi():
    return MarconiCache(MODEL, 4 * node_state_bytes(MODEL, 1000, True), alpha=1.0)


# ----------------------------------------------------------------------
# Event queue: total ordering + per-queue tie-break counters
# ----------------------------------------------------------------------
class TestEventQueueOrdering:
    @given(
        entries=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 1.0, 2.5]),  # deliberate time ties
                st.sampled_from(list(EventKind)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_total_order_under_equal_timestamps(self, entries):
        queue = EventQueue()
        for index, (time, kind) in enumerate(entries):
            queue.push(time, kind, payload=index)
        popped = [queue.pop_entry() for _ in range(len(entries))]
        keys = [(time, kind, seq) for time, kind, seq, _, _ in popped]
        assert keys == sorted(keys)
        # FIFO among identical (time, kind): payload index must ascend.
        for (a, b) in zip(popped, popped[1:]):
            if a[:2] == b[:2]:
                assert a[ENTRY_PAYLOAD] < b[ENTRY_PAYLOAD]

    def test_per_queue_counters_are_independent(self):
        """Regression for the shared tie-break counter: a second queue in
        the same process must start numbering at zero, so its pop order
        (and any replay transcript built on it) cannot depend on how many
        events an unrelated simulation already pushed."""
        first = EventQueue()
        for _ in range(5):
            first.push(1.0, EventKind.REQUEST_ARRIVAL, None)
        second = EventQueue()
        second.push(1.0, EventKind.REQUEST_ARRIVAL, "a")
        first.push(1.0, EventKind.REQUEST_ARRIVAL, None)  # interleaved pushes
        second.push(1.0, EventKind.REQUEST_ARRIVAL, "b")
        entries = [second.pop_entry(), second.pop_entry()]
        assert [e[ENTRY_PAYLOAD] for e in entries] == ["a", "b"]
        assert [e[ENTRY_SEQ] for e in entries] == [0, 1]

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        queue.push(3.0, EventKind.PREFILL_DONE, "x")
        head = queue.peek_entry()
        assert head[ENTRY_PAYLOAD] == "x" and len(queue) == 1
        assert queue.pop_entry() is head


class TestVirtualClock:
    def test_monotone_advance(self):
        clock = VirtualClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance(1.5) == 1.5  # equal time is fine
        with pytest.raises(ValueError):
            clock.advance(1.0)

    @given(times=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_sorted_times_always_accepted(self, times):
        clock = VirtualClock()
        for t in sorted(times):
            clock.advance(t)
        assert clock.now == max(times)


class TestKernelConstruction:
    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            KernelConfig(max_running=0)

    def test_rejects_empty_replica_set(self):
        with pytest.raises(ValueError):
            SimulationKernel(MODEL, [])

    def test_rejects_multi_replica_without_router(self):
        with pytest.raises(ValueError):
            SimulationKernel(MODEL, [VanillaCache(MODEL), VanillaCache(MODEL)])

    def test_rejects_policy_name_mismatch(self):
        with pytest.raises(ValueError):
            SimulationKernel(MODEL, [VanillaCache(MODEL)], policy_names=["a", "b"])


# ----------------------------------------------------------------------
# Kernel-level invariants over random traces
# ----------------------------------------------------------------------
class TestKernelInvariants:
    @given(trace=traces(), n_executors=st.sampled_from([1, 2, 4]))
    @settings(max_examples=25, deadline=None)
    def test_no_session_left_open_at_drain(self, trace, n_executors):
        cache = _marconi()
        result = simulate_trace(MODEL, cache, trace, n_executors=n_executors)
        assert cache.open_sessions == 0
        assert result.n_requests == trace.n_requests

    @given(trace=traces())
    @settings(max_examples=15, deadline=None)
    def test_iteration_engine_closes_all_sessions(self, trace):
        cache = _marconi()
        result = simulate_trace_iteration(
            MODEL, cache, trace, config=IterationConfig(token_budget=128)
        )
        assert cache.open_sessions == 0
        assert result.n_requests == trace.n_requests

    @given(trace=traces(), n_replicas=st.sampled_from([1, 2, 3]))
    @settings(max_examples=15, deadline=None)
    def test_cluster_closes_all_sessions(self, trace, n_replicas):
        caches = [_marconi() for _ in range(n_replicas)]
        result = simulate_cluster(MODEL, caches, RoundRobinRouter(), trace)
        assert all(cache.open_sessions == 0 for cache in caches)
        assert result.n_requests == trace.n_requests

    @given(trace=traces(), n_executors=st.sampled_from([1, 3]))
    @settings(max_examples=20, deadline=None)
    def test_timeseries_times_monotone(self, trace, n_executors):
        result = simulate_trace(
            MODEL, VanillaCache(MODEL), trace, n_executors=n_executors
        )
        for series in (result.queue_depth_series, result.running_series):
            times = [t for t, _ in series]
            assert times == sorted(times)
        running = [r for _, r in result.running_series]
        assert all(0 <= r <= n_executors for r in running)
        assert result.running_series[-1][1] == 0  # drained

    @given(trace=traces(), n_executors=st.sampled_from([1, 2]))
    @settings(max_examples=20, deadline=None)
    def test_replay_determinism_serving(self, trace, n_executors):
        """Same (trace, seed, config) ⇒ identical RequestRecord streams."""
        first = simulate_trace(MODEL, _marconi(), trace, n_executors=n_executors)
        second = simulate_trace(MODEL, _marconi(), trace, n_executors=n_executors)
        assert first.records == second.records
        assert first.cache_stats == second.cache_stats
        assert first.queue_depth_series == second.queue_depth_series
        assert first.running_series == second.running_series

    @given(trace=traces(), n_replicas=st.sampled_from([2, 3]))
    @settings(max_examples=10, deadline=None)
    def test_replay_determinism_cluster(self, trace, n_replicas):
        runs = [
            simulate_cluster(
                MODEL,
                [_marconi() for _ in range(n_replicas)],
                RoundRobinRouter(),
                trace,
            )
            for _ in range(2)
        ]
        assert runs[0].routed_counts == runs[1].routed_counts
        assert runs[0].busy_seconds == runs[1].busy_seconds
        for a, b in zip(runs[0].replica_results, runs[1].replica_results):
            assert a.records == b.records

    def test_rerun_on_one_cache_replays_identically(self):
        """Regression: the legacy loops threaded one engine-held counter
        into every run's event queue, so a reused engine started each run
        at a different seq offset.  Kernel runs rebuild all per-run state,
        so a rerun over the same cache replays byte-identically."""
        trace_sessions = [
            TraceSession(
                session_id=0,
                arrival_time=0.0,
                rounds=[
                    TraceRound(
                        np.arange(50, dtype=np.int32),
                        np.arange(20, dtype=np.int32),
                    )
                ],
                think_times=[0.0],
            )
        ]
        trace = Trace(name="t", seed=0, sessions=trace_sessions)
        cache = VanillaCache(MODEL)
        first = simulate_trace(MODEL, cache, trace)
        assert first.records == simulate_trace(MODEL, cache, trace).records


# ----------------------------------------------------------------------
# On the digest's matrix traces
# ----------------------------------------------------------------------
class TestKernelOnMatrixTraces:
    def test_no_open_sessions_after_run(self):
        cache = evicting_marconi()
        simulate_trace(MODEL, cache, matrix_trace("bursty"), n_executors=2)
        assert cache.open_sessions == 0

    @given(
        order=st.permutations(range(8)),
        arrivals=st.lists(st.sampled_from([0.0, 0.5, 2.5]), min_size=8, max_size=8),
        n_executors=st.sampled_from([1, 4]),
    )
    @settings(max_examples=25, deadline=None)
    def test_unsorted_tied_arrivals_replay_as_stable_sorted(self, order, arrivals, n_executors):
        """A shuffled session list with forced duplicate arrival times is
        admitted in arrival order, tied sessions in their list order, and
        replays record for record as the same list stable-sorted by arrival
        (the goldens and the digest only hold sorted lists)."""
        sessions = matrix_trace("bursty").sessions
        for session, arrival in zip(sessions, arrivals):
            session.arrival_time = arrival
        shuffled = [sessions[i] for i in order]
        stable = sorted(shuffled, key=lambda s: s.arrival_time)
        # Round 0 of session i appends 300 + 40 i tokens, and no later
        # round's input has one of those lengths: a begin of that length
        # admits session i.
        first_round = {len(s.rounds[0].new_input_tokens): s.session_id for s in sessions}
        runs, admitted = [], []
        for listed in (shuffled, stable):
            cache, begun = evicting_marconi(), []
            begin = cache.begin

            def recorded(tokens, now, begin=begin, begun=begun):
                begun.append(first_round.get(len(tokens)))
                return begin(tokens, now)

            cache.begin = recorded
            trace = Trace(name="tied", seed=0, sessions=listed)
            runs.append(simulate_trace(MODEL, cache, trace, n_executors=n_executors))
            admitted.append([sid for sid in begun if sid is not None])
        assert admitted[0] == admitted[1] == [s.session_id for s in stable]
        assert runs[0].records == runs[1].records
        assert runs[0].cache_stats == runs[1].cache_stats

    def test_cluster_equals_serving_at_one_replica(self):
        """The two kernel configurations coincide at R=1, max_running=1."""
        trace = matrix_trace("lmsys")
        single = simulate_trace(MODEL, evicting_marconi(), trace)
        cluster = simulate_cluster(MODEL, [evicting_marconi()], RoundRobinRouter(), trace)
        assert cluster.replica_results[0].records == single.records
        assert cluster.replica_results[0].cache_stats == single.cache_stats


class TestKernelNewCapabilities:
    """What the kernel adds beyond the pre-kernel serving loops."""

    def test_timeseries_populated_and_monotone(self):
        result = simulate_trace(MODEL, evicting_marconi(), matrix_trace("bursty"), n_executors=2)
        assert result.queue_depth_series and result.running_series
        for series in (result.queue_depth_series, result.running_series):
            times = [t for t, _ in series]
            assert times == sorted(times)
        assert result.peak_queue_depth() > 0
        assert 0.0 <= result.executor_utilization() <= 1.0

    def test_more_executors_raise_concurrency_on_bursty_trace(self):
        trace = matrix_trace("bursty")
        serial = simulate_trace(MODEL, evicting_marconi(), trace, n_executors=1)
        batched = simulate_trace(MODEL, evicting_marconi(), trace, n_executors=4)
        # Continuous batching actually occupies the extra slots...
        assert batched.mean_running() > serial.mean_running()
        # ...and burns down the backlog.
        assert batched.mean_queue_depth() < serial.mean_queue_depth()

    def test_cluster_max_running_speeds_up_bursts(self):
        trace = matrix_trace("bursty")
        slow = simulate_cluster(MODEL, [evicting_marconi()], RoundRobinRouter(), trace)
        fast = simulate_cluster(
            MODEL, [evicting_marconi()], RoundRobinRouter(), trace, max_running=4
        )
        assert fast.ttft_percentile(95) < slow.ttft_percentile(95)
        assert fast.replica_results[0].max_running == 4
