"""Property suite: a streamed trace replays identically to a materialized one.

The kernel pulls sessions one at a time from ``iter_sessions()``; a lazily
generated ``TraceStream`` and a materialized ``Trace`` (sorted on the way
in) must produce *byte-identical* transcripts: the same ``RequestRecord``
stream, the same cache stats, the same telemetry timeseries — for every
engine, and with cluster fail/drain/join scenarios firing mid-stream.
Hypothesis drives randomized workload parameters through the real
generators (the same code paths experiments use), so any divergence
between the two inputs — event tie-breaks, session lifetime bookkeeping,
arrival ordering — shows up as a concrete failing seed.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.registry import make_cache
from repro.cluster.router import PrefixAffinityRouter, RoundRobinRouter
from repro.cluster.simulator import simulate_cluster
from repro.engine.iteration import simulate_trace_iteration
from repro.engine.latency import LatencyModel
from repro.engine.server import simulate_trace
from repro.engine.steering import ScenarioEvent
from repro.models.presets import hybrid_7b
from repro.workloads import (
    WORKLOAD_NAMES,
    WorkloadParams,
    generate_trace,
    generate_trace_stream,
    mix_streams,
    mix_traces,
)
from repro.workloads.trace import TraceStream

MODEL = hybrid_7b()
LATENCY = LatencyModel()


@st.composite
def workload_params(draw, max_sessions: int = 12):
    return WorkloadParams(
        n_sessions=draw(st.integers(min_value=2, max_value=max_sessions)),
        session_rate=draw(st.sampled_from([0.5, 1.0, 2.0, 5.0])),
        mean_think_s=draw(st.sampled_from([0.0, 0.5, 2.0])),
        seed=draw(st.integers(min_value=0, max_value=2**20)),
        arrival_process=draw(
            st.sampled_from(["poisson", "bursty", "diurnal", "flashcrowd"])
        ),
    )


def _records(result):
    return [asdict(r) for r in result.records]


def _assert_engine_results_equal(a, b):
    assert _records(a) == _records(b)
    assert a.cache_stats == b.cache_stats
    assert a.queue_depth_series == b.queue_depth_series
    assert a.running_series == b.running_series


class TestGeneratorEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        workload=st.sampled_from(WORKLOAD_NAMES),
        params=workload_params(),
    )
    def test_materialized_stream_is_the_built_trace(self, workload, params):
        trace = generate_trace(workload, params)
        again = generate_trace_stream(workload, params).materialize()
        assert trace.name == again.name
        assert trace.seed == again.seed
        # A built trace may add what only a full pass knows (a sample count).
        assert again.metadata.items() <= trace.metadata.items()
        assert trace.n_sessions == again.n_sessions
        for ours, theirs in zip(trace.sessions, again.sessions):
            assert ours.session_id == theirs.session_id
            assert ours.arrival_time == theirs.arrival_time
            assert ours.think_times == theirs.think_times
            for ra, rb in zip(ours.rounds, theirs.rounds):
                assert (ra.new_input_tokens == rb.new_input_tokens).all()
                assert (ra.output_tokens == rb.output_tokens).all()

    @settings(max_examples=10, deadline=None)
    @given(
        workload=st.sampled_from(WORKLOAD_NAMES),
        params=workload_params(max_sessions=8),
    )
    def test_stream_is_reiterable_and_deterministic(self, workload, params):
        stream = generate_trace_stream(workload, params)
        first = [(s.session_id, s.arrival_time) for s in stream.iter_sessions()]
        second = [(s.session_id, s.arrival_time) for s in stream.iter_sessions()]
        assert first == second


class TestEngineEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        workload=st.sampled_from(WORKLOAD_NAMES),
        params=workload_params(max_sessions=8),
        policy=st.sampled_from(["vanilla", "vllm+", "sglang+", "marconi"]),
        capacity=st.sampled_from([200_000_000, 1_000_000_000]),
    )
    def test_serving_engine_byte_identical(self, workload, params, policy, capacity):
        trace = generate_trace(workload, params)
        stream = generate_trace_stream(workload, params)
        bulk = simulate_trace(
            MODEL, make_cache(policy, MODEL, capacity), trace, LATENCY,
            policy_name=policy,
        )
        streamed = simulate_trace(
            MODEL, make_cache(policy, MODEL, capacity), stream, LATENCY,
            policy_name=policy,
        )
        _assert_engine_results_equal(bulk, streamed)

    @settings(max_examples=8, deadline=None)
    @given(
        params=workload_params(max_sessions=6),
        policy=st.sampled_from(["sglang+", "marconi"]),
    )
    def test_iteration_engine_byte_identical(self, params, policy):
        trace = generate_trace("lmsys", params)
        stream = generate_trace_stream("lmsys", params)
        bulk = simulate_trace_iteration(
            MODEL, make_cache(policy, MODEL, 500_000_000), trace, LATENCY,
            policy_name=policy,
        )
        streamed = simulate_trace_iteration(
            MODEL, make_cache(policy, MODEL, 500_000_000), stream, LATENCY,
            policy_name=policy,
        )
        _assert_engine_results_equal(bulk, streamed)
        assert bulk.tbt_gaps == streamed.tbt_gaps
        assert bulk.n_iterations == streamed.n_iterations

    @settings(max_examples=8, deadline=None)
    @given(
        params=workload_params(max_sessions=10),
        router_cls=st.sampled_from([PrefixAffinityRouter, RoundRobinRouter]),
        fail_time=st.sampled_from([0.5, 2.0, 6.0]),
        join_time=st.sampled_from([1.0, 4.0]),
    )
    def test_cluster_scenario_byte_identical(
        self, params, router_cls, fail_time, join_time
    ):
        """Fail + join + drain fire mid-stream; transcripts still match."""
        spawn = lambda: make_cache("marconi", MODEL, 400_000_000)  # noqa: E731
        scenario = [
            ScenarioEvent(fail_time, "fail", replica=1),
            ScenarioEvent(join_time, "join", cache_factory=spawn, name="spare"),
            ScenarioEvent(fail_time + join_time, "drain", replica=0),
        ]
        trace = generate_trace("lmsys", params)
        stream = generate_trace_stream("lmsys", params)

        def run(source):
            caches = [make_cache("marconi", MODEL, 400_000_000) for _ in range(3)]
            return simulate_cluster(
                MODEL, caches, router_cls(), source, LATENCY, scenario=scenario
            )

        bulk, streamed = run(trace), run(stream)
        assert [_records(r) for r in bulk.replica_results] == [
            _records(r) for r in streamed.replica_results
        ]
        assert bulk.routed_counts == streamed.routed_counts
        assert bulk.busy_seconds == streamed.busy_seconds
        assert bulk.steering.to_dict() == streamed.steering.to_dict()
        # Every trace round is served exactly once despite the failure.
        served = sum(r.n_requests for r in streamed.replica_results)
        assert served == trace.n_requests

    @settings(max_examples=6, deadline=None)
    @given(
        pa=workload_params(max_sessions=6),
        pb=workload_params(max_sessions=6),
    )
    def test_mixture_stream_byte_identical(self, pa, pb):
        trace = mix_traces(
            [generate_trace("lmsys", pa), generate_trace("docqa", pb)]
        )
        stream = mix_streams(
            [
                generate_trace_stream("lmsys", pa),
                generate_trace_stream("docqa", pb),
            ]
        )
        assert stream.materialize().metadata == trace.metadata
        bulk = simulate_trace(
            MODEL, make_cache("marconi", MODEL, 500_000_000), trace, LATENCY
        )
        streamed = simulate_trace(
            MODEL, make_cache("marconi", MODEL, 500_000_000), stream, LATENCY
        )
        _assert_engine_results_equal(bulk, streamed)


class TestStreamContract:
    def test_unsorted_stream_is_rejected(self):
        trace = generate_trace("lmsys", WorkloadParams(n_sessions=4, seed=0))
        backwards = list(reversed(trace.sessions))
        stream = TraceStream("bad", 0, lambda: iter(backwards))
        with pytest.raises(ValueError, match="sorted by arrival"):
            list(stream.iter_sessions())

    def test_from_trace_sorts_unsorted_sessions(self):
        trace = generate_trace("lmsys", WorkloadParams(n_sessions=4, seed=1))
        trace.sessions.reverse()
        stream = TraceStream.from_trace(trace)
        arrivals = [s.arrival_time for s in stream.iter_sessions()]
        assert arrivals == sorted(arrivals)

    @pytest.mark.parametrize("build", [generate_trace_stream, generate_trace])
    def test_kernel_releases_finished_sessions(self, build):
        """Bounded memory: the kernel's session registry drains to zero,
        for a stream and for a materialized trace alike."""
        from repro.engine.kernel import SimulationKernel

        kernel = SimulationKernel(
            MODEL, [make_cache("marconi", MODEL, 500_000_000)], LATENCY
        )
        kernel.run(build("lmsys", WorkloadParams(n_sessions=10, seed=3)))
        assert kernel._sessions_by_id == {}

    def test_jsonl_stream_roundtrip_matches_trace(self, tmp_path):
        params = WorkloadParams(n_sessions=5, seed=7)
        trace = generate_trace("sharegpt", params)
        path = tmp_path / "t.jsonl"
        written = generate_trace_stream("sharegpt", params).to_jsonl(path)
        assert written == 5
        loaded = TraceStream.from_jsonl(path)
        bulk = simulate_trace(
            MODEL, make_cache("marconi", MODEL, 500_000_000), trace, LATENCY
        )
        streamed = simulate_trace(
            MODEL, make_cache("marconi", MODEL, 500_000_000), loaded, LATENCY
        )
        _assert_engine_results_equal(bulk, streamed)
