"""Property tests for the simulation kernel and its event queue.

Four kernel invariants, checked over hypothesis-generated random traces
and replica counts, plus one read off the source — the kernel and the
schedulers meet only at the surface ``ReplicaScheduler`` writes down:

* event-queue ordering is *total* — equal-timestamp events pop in
  ``(kind, per-queue insertion order)``, independent of payloads and of
  any other queue living in the same process (the tie-break bug fix);
* the virtual clock is monotone and refuses to run backwards;
* no cache session is left open once the kernel drains;
* replay is deterministic — the same (trace, seed, config) produces an
  identical ``RequestRecord`` stream, run after run, engine after engine.
"""

from __future__ import annotations

import ast
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.vanilla import VanillaCache
from repro.cluster import RoundRobinRouter, simulate_cluster
from repro.core.cache import MarconiCache
from repro.engine import kernel as kernel_module
from repro.engine import schedulers as schedulers_module
from repro.engine.events import EventKind, EventQueue
from repro.engine.iteration import IterationConfig, simulate_trace_iteration
from repro.engine.kernel import KernelConfig, SimulationKernel, VirtualClock
from repro.engine.server import ServingSimulator, simulate_trace
from repro.models.memory import node_state_bytes
from repro.models.presets import hybrid_7b
from repro.workloads.trace import Trace, TraceRound, TraceSession

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
        popped = [queue.pop() for _ in range(len(entries))]
        keys = [(e.time, e.kind, e.seq) for e in popped]
        assert keys == sorted(keys)
        # FIFO among identical (time, kind): payload index must ascend.
        for (a, b) in zip(popped, popped[1:]):
            if (a.time, a.kind) == (b.time, b.kind):
                assert a.payload < b.payload

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
        events = [second.pop(), second.pop()]
        assert [e.payload for e in events] == ["a", "b"]
        assert [e.seq for e in events] == [0, 1]

    def test_external_seq_still_accepted(self):
        shared = itertools.count(10)
        queue = EventQueue(shared)
        queue.push(0.0, EventKind.REQUEST_ARRIVAL, None)
        assert queue.pop().seq == 10

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        queue.push(3.0, EventKind.PREFILL_DONE, "x")
        assert queue.peek().payload == "x"
        assert len(queue) == 1


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
# The kernel / scheduler boundary, read off the source
# ----------------------------------------------------------------------
def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


CONCRETE_SCHEDULERS = {
    cls.__name__ for cls in _all_subclasses(schedulers_module.ReplicaScheduler)
}


def _mentions(node: ast.AST, word: str) -> bool:
    """Does any name or attribute inside ``node`` contain ``word``?"""
    return any(
        word in (getattr(sub, "id", "") + getattr(sub, "attr", ""))
        for sub in ast.walk(node)
    )


def scheduler_reaches_into_kernel(source: str) -> list[str]:
    """Every ``kernel._x`` / ``<expr>.kernel._x`` attribute access."""
    return [
        f"line {node.lineno}: kernel.{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and getattr(node.value, "id", getattr(node.value, "attr", None)) == "kernel"
    ]


def kernel_reaches_into_scheduler(source: str) -> list[str]:
    """Every ``isinstance(_, <concrete scheduler>)`` and every
    ``getattr`` / ``hasattr`` whose object names a scheduler."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "isinstance" and len(node.args) == 2:
            if any(_mentions(node.args[1], name) for name in CONCRETE_SCHEDULERS):
                found.append(f"line {node.lineno}: isinstance on a concrete scheduler")
        elif node.func.id in ("getattr", "hasattr") and node.args:
            if _mentions(node.args[0], "scheduler"):
                found.append(f"line {node.lineno}: {node.func.id} on a scheduler")
    return found


class TestKernelSchedulerBoundary:
    def test_neither_side_reaches_into_the_other(self):
        assert scheduler_reaches_into_kernel(inspect.getsource(schedulers_module)) == []
        assert kernel_reaches_into_scheduler(inspect.getsource(kernel_module)) == []

    def test_the_checks_catch_what_this_boundary_replaced(self):
        """The reach-arounds the kernel carried before the cut, verbatim."""
        assert {"ContinuousBatchingScheduler", "TokenBatchingScheduler"} <= (
            CONCRETE_SCHEDULERS
        )
        old_scheduler = (
            "if kernel._pending_splits:\n"
            "    self.kernel._active_sessions[id(session)] = entry\n"
            "self._track_active = kernel._track_active\n"
            "kernel.busy_seconds[self.replica] += seconds\n"
        )
        assert len(scheduler_reaches_into_kernel(old_scheduler)) == 3
        old_kernel = (
            "split = isinstance(spec, SplitSpec) and isinstance(\n"
            "    self.schedulers[replica], ContinuousBatchingScheduler)\n"
            "if isinstance(scheduler, (TokenBatchingScheduler, int)): pass\n"
            "queue = getattr(scheduler, 'queue', None)\n"
            "if hasattr(self.schedulers[replica], 'free_slots'): pass\n"
            "tree = getattr(self.caches[0], 'tree', None)\n"
        )
        assert len(kernel_reaches_into_scheduler(old_kernel)) == 4


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

    def test_same_engine_instance_replays_identically(self):
        """Regression: the legacy loops threaded one engine-held counter
        into every run's event queue, so a reused engine instance started
        each run at a different seq offset.  Kernel runs rebuild all
        per-run state, so one instance replays byte-identically."""
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
        engine = ServingSimulator(MODEL, VanillaCache(MODEL))
        assert engine.run(trace).records == engine.run(trace).records
