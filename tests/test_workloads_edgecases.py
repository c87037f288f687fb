"""Edge-case coverage for the workload layer.

The corners the generators and trace schema must hold firm on: degenerate
think-time lists, single-round sessions, zero Poisson arrivals, and — the
regression the experiment caches rely on — seed stability of every
registered workload generator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import (
    WORKLOAD_NAMES,
    PoissonProcess,
    WorkloadParams,
    exponential_think_times,
    generate_trace,
    generate_trace_stream,
    mix_streams,
)
from repro.workloads.trace import TraceRound, TraceSession


class TestThinkTimes:
    def test_zero_rounds_is_rejected(self):
        with pytest.raises(ValueError, match="n_rounds must be positive"):
            exponential_think_times(np.random.default_rng(0), 0, 1.0)

    def test_single_round_is_the_zero_gap(self):
        assert exponential_think_times(np.random.default_rng(0), 1, 5.0) == [0.0]

    def test_zero_mean_gives_all_zero_gaps(self):
        gaps = exponential_think_times(np.random.default_rng(0), 4, 0.0)
        assert gaps == [0.0, 0.0, 0.0, 0.0]

    def test_negative_mean_is_rejected(self):
        with pytest.raises(ValueError, match="mean_seconds"):
            exponential_think_times(np.random.default_rng(0), 3, -1.0)

    def test_session_rejects_empty_think_list(self):
        rounds = [TraceRound(np.array([1, 2]), np.array([3]))]
        with pytest.raises(ValueError, match="one think time per round"):
            TraceSession(0, 0.0, rounds, think_times=[])

    def test_session_rejects_mismatched_think_list(self):
        rounds = [TraceRound(np.array([1, 2]), np.array([3]))]
        with pytest.raises(ValueError, match="one think time per round"):
            TraceSession(0, 0.0, rounds, think_times=[0.0, 1.0])

    def test_single_round_session_roundtrips(self):
        session = TraceSession(
            7, 1.5, [TraceRound(np.array([1, 2]), np.array([3]))], [0.0]
        )
        assert session.n_rounds == 1
        assert session.input_lengths() == [2]
        assert session.output_lengths() == [1]
        assert (session.interned_round(0)[1].arr == np.array([1, 2, 3])).all()


class TestArrivalProcesses:
    def test_poisson_zero_requests(self):
        assert len(PoissonProcess(1.0).arrival_times(np.random.default_rng(0), 0)) == 0

    def test_poisson_arrivals_increase(self):
        times = PoissonProcess(3.0).arrival_times(np.random.default_rng(1), 500)
        assert times[0] > 0.0
        assert (np.diff(times) > 0).all()

    def test_poisson_long_run_rate_matches(self):
        rate = 4.0
        times = PoissonProcess(rate).arrival_times(np.random.default_rng(2), 20_000)
        assert len(times) / times[-1] == pytest.approx(rate, rel=0.03)

    def test_poisson_gaps_are_exponential(self):
        """Exponential gaps: the coefficient of variation is 1 (no bursts)."""
        times = PoissonProcess(2.0).arrival_times(np.random.default_rng(3), 20_000)
        gaps = np.diff(np.concatenate([[0.0], times]))
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.03)

    def test_poisson_validation(self):
        with pytest.raises(ValueError, match="rate must be positive"):
            PoissonProcess(-1.0)
        with pytest.raises(ValueError, match="n must be non-negative"):
            PoissonProcess(1.0).arrival_times(np.random.default_rng(0), -1)

    def test_poisson_draws_are_cumulative_exponential_gaps(self):
        """The draws every generator's arrival times (and so every trace)
        rest on: one ``exponential(1/rate)`` vector, cumulated."""
        times = PoissonProcess(0.5).arrival_times(np.random.default_rng(9), 50)
        gaps = np.random.default_rng(9).exponential(scale=2.0, size=50)
        np.testing.assert_array_equal(times, np.cumsum(gaps))

    def test_think_times_long_run_mean(self):
        gaps = exponential_think_times(np.random.default_rng(4), 20_001, 3.0)
        assert gaps[0] == 0.0
        assert len(gaps) == 20_001
        assert np.mean(gaps[1:]) == pytest.approx(3.0, rel=0.03)

    @pytest.mark.parametrize("workload", ["lmsys", "sharegpt", "swebench"])
    def test_session_starts_are_the_poisson_draws(self, workload):
        """A session trace's start times are the first draws of its seed's
        stream: Poisson at ``session_rate``, nothing else selects them."""
        params = WorkloadParams(n_sessions=12, session_rate=2.5, seed=5)
        trace = generate_trace(workload, params)
        expected = PoissonProcess(2.5).arrival_times(np.random.default_rng(5), 12)
        starts = [s.arrival_time for s in trace.sessions]
        np.testing.assert_array_equal(starts, expected)

    def test_selfconsistency_queries_arrive_at_the_poisson_draws(self):
        """Each query's first sample fires at its Poisson arrival; the other
        samples land within the dispatch spread after it."""
        params = WorkloadParams(n_sessions=10, session_rate=1.5, seed=6)
        trace = generate_trace("selfconsistency", params)
        bases = PoissonProcess(1.5).arrival_times(np.random.default_rng(6), 10)
        starts = np.asarray([s.arrival_time for s in trace.sessions])
        assert set(bases.tolist()) <= set(starts.tolist())
        # every sample is within the 0.5 s spread after some query's base
        owner = np.searchsorted(bases, starts, side="right") - 1
        assert (owner >= 0).all()
        assert (starts - bases[owner] <= 0.5).all()

    def test_workload_params_has_no_arrival_option(self):
        """Poisson is the only arrival process: there is nothing to pick."""
        with pytest.raises(TypeError):
            WorkloadParams(arrival_process="poisson")

    def test_cli_has_no_arrival_flag(self):
        from repro.experiments.__main__ import main as cli_main

        with pytest.raises(SystemExit):
            cli_main(["--arrival", "poisson", "--list"])


class TestSeedStability:
    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_same_seed_same_trace(self, workload):
        params = WorkloadParams(n_sessions=6, seed=42)
        first = generate_trace(workload, params)
        second = generate_trace(workload, params)
        assert first.n_sessions == second.n_sessions
        for a, b in zip(first.sessions, second.sessions):
            assert a.session_id == b.session_id
            assert a.arrival_time == b.arrival_time
            assert a.think_times == b.think_times
            for ra, rb in zip(a.rounds, b.rounds):
                assert (ra.new_input_tokens == rb.new_input_tokens).all()
                assert (ra.output_tokens == rb.output_tokens).all()

    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_different_seed_different_trace(self, workload):
        params_a = WorkloadParams(n_sessions=6, seed=1)
        params_b = WorkloadParams(n_sessions=6, seed=2)
        a = generate_trace(workload, params_a)
        b = generate_trace(workload, params_b)
        assert [s.arrival_time for s in a.sessions] != [
            s.arrival_time for s in b.sessions
        ]

    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_stream_is_seed_stable(self, workload):
        params = WorkloadParams(n_sessions=5, seed=9)
        first = generate_trace_stream(workload, params)
        second = generate_trace_stream(workload, params)
        fingerprint = lambda stream: [  # noqa: E731
            (s.session_id, s.arrival_time, sum(len(r.new_input_tokens) for r in s.rounds))
            for s in stream.iter_sessions()
        ]
        assert fingerprint(first) == fingerprint(second)


class TestMixtureEdges:
    def test_empty_component_list_rejected(self):
        with pytest.raises(ValueError, match="at least one component"):
            mix_streams([])

    def test_single_component_mixture_keeps_sessions(self):
        stream = mix_streams(
            [generate_trace_stream("docqa", WorkloadParams(n_sessions=3, seed=0))]
        )
        trace = stream.materialize()
        assert trace.n_sessions == 3
        assert trace.metadata["components"][0]["session_id_offset"] == 0
