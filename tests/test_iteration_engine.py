"""Tests for the iteration-level batching engine (chunked prefill + TBT)."""

import numpy as np
import pytest

from repro.core.cache import MarconiCache
from repro.baselines.vanilla import VanillaCache
from repro.engine.iteration import (
    IterationConfig,
    simulate_trace_iteration,
)
from repro.engine.latency import LatencyModel
from repro.models.memory import node_state_bytes
from repro.workloads import generate_trace
from repro.workloads.trace import Trace, TraceRound, TraceSession


def _session(session_id, arrival, rounds, think=1.0):
    trace_rounds = [
        TraceRound(
            new_input_tokens=np.asarray(i, dtype=np.int32),
            output_tokens=np.asarray(o, dtype=np.int32),
        )
        for i, o in rounds
    ]
    return TraceSession(
        session_id=session_id,
        arrival_time=arrival,
        rounds=trace_rounds,
        think_times=[0.0] + [think] * (len(rounds) - 1),
    )


def _trace(sessions):
    return Trace(name="t", seed=0, sessions=sessions)


def _cache(hybrid, seqs=50):
    return MarconiCache(hybrid, seqs * node_state_bytes(hybrid, 2000, True), alpha=1.0)


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            IterationConfig(token_budget=0)
        with pytest.raises(ValueError):
            IterationConfig(max_batch=0)
        with pytest.raises(ValueError):
            IterationConfig(iteration_overhead_s=-1.0)


class TestScheduling:
    def test_serves_all_requests(self, hybrid):
        trace = generate_trace("lmsys", n_sessions=8, seed=51)
        result = simulate_trace_iteration(hybrid, _cache(hybrid), trace)
        assert result.n_requests == trace.n_requests
        assert all(r.ttft > 0 for r in result.records)

    def test_chunk_budget_bounds_iterations(self, hybrid):
        """A 1000-token prefill at budget B takes ceil(1000/B) iterations."""
        trace = _trace([_session(0, 0.0, [(list(range(1000)), [1, 2])])])
        for budget in (128, 512):
            result = simulate_trace_iteration(
                hybrid, _cache(hybrid), trace,
                config=IterationConfig(token_budget=budget),
            )
            expected = -(-1000 // budget) + 1  # prefill chunks + 1 decode step
            assert result.n_iterations == expected

    def test_ttft_grows_with_smaller_chunks(self, hybrid):
        """More chunks -> more per-iteration overhead on the same FLOPs."""
        trace = _trace([_session(0, 0.0, [(list(range(2000)), [1, 2, 3])])])
        fine = simulate_trace_iteration(
            hybrid, _cache(hybrid), trace, config=IterationConfig(token_budget=64)
        )
        coarse = simulate_trace_iteration(
            hybrid, _cache(hybrid), trace, config=IterationConfig(token_budget=4096)
        )
        assert fine.records[0].ttft > coarse.records[0].ttft

    def test_gap_count_matches_output_tokens(self, hybrid):
        out_len = 7
        trace = _trace([_session(0, 0.0, [(list(range(50)), list(range(out_len)))])])
        result = simulate_trace_iteration(hybrid, _cache(hybrid), trace)
        # First token arrives with the prefill; the rest each record a gap.
        assert len(result.tbt_gaps) == out_len - 1

    def test_single_token_output(self, hybrid):
        trace = _trace([_session(0, 0.0, [(list(range(50)), [9])])])
        result = simulate_trace_iteration(hybrid, _cache(hybrid), trace)
        assert result.n_requests == 1
        assert result.tbt_gaps == []

    def test_sessions_are_closed_loop(self, hybrid):
        trace = _trace([
            _session(0, 0.0, [([1, 2, 3], [4, 5]), ([6, 7], [8, 9])], think=3.0)
        ])
        result = simulate_trace_iteration(hybrid, _cache(hybrid), trace)
        first, second = sorted(result.records, key=lambda r: r.round_index)
        assert second.arrival_time >= first.arrival_time + first.ttft + 3.0

    def test_max_batch_delays_excess_streams(self, hybrid):
        """With max_batch=1, two concurrent decodes serialize."""
        sessions = [
            _session(0, 0.0, [(list(range(20)), list(range(30)))]),
            _session(1, 0.0, [(list(range(100, 120)), list(range(30)))]),
        ]
        serial = simulate_trace_iteration(
            hybrid, _cache(hybrid), _trace(sessions),
            config=IterationConfig(max_batch=1),
        )
        batched = simulate_trace_iteration(
            hybrid, _cache(hybrid), _trace(sessions),
            config=IterationConfig(max_batch=8),
        )
        assert serial.n_iterations > batched.n_iterations


class TestFootnoteTwo:
    """The paper's footnote 2: prefix caching lowers tail TPT too."""

    def _tbt_p95(self, hybrid, cache):
        trace = generate_trace(
            "lmsys",
            n_sessions=16, seed=53, session_rate=4.0, mean_think_s=2.0
        )
        result = simulate_trace_iteration(
            hybrid, cache, trace, config=IterationConfig(token_budget=512)
        )
        return result

    def test_cache_hits_lower_tail_tbt(self, hybrid):
        vanilla = self._tbt_p95(hybrid, VanillaCache(hybrid))
        marconi = self._tbt_p95(hybrid, _cache(hybrid))
        assert marconi.token_hit_rate > 0
        # Fewer prefill iterations in the way of concurrent decodes.
        assert marconi.tbt_percentile(95) <= vanilla.tbt_percentile(95)
        assert marconi.ttft_percentile(95) <= vanilla.ttft_percentile(95)

    def test_chunking_bounds_tail_tbt_under_load(self, hybrid):
        """Chunked prefill caps how long a decode stream can starve."""
        sessions = [
            _session(0, 0.0, [(list(range(30)), list(range(60)))]),
            # A 20K-token monster arrives while session 0 decodes.
            _session(1, 0.05, [(list(range(100, 20100)), [1, 2])]),
        ]
        chunked = simulate_trace_iteration(
            hybrid, _cache(hybrid), _trace(sessions),
            config=IterationConfig(token_budget=256),
        )
        unchunked = simulate_trace_iteration(
            hybrid, _cache(hybrid), _trace(sessions),
            config=IterationConfig(token_budget=1 << 20),
        )
        assert max(chunked.tbt_gaps) < max(unchunked.tbt_gaps)


class TestResultSurface:
    def test_percentile_validation(self):
        from repro.engine.iteration import IterationResult

        empty = IterationResult(policy="x")
        with pytest.raises(ValueError):
            empty.ttft_percentile(95)
        with pytest.raises(ValueError):
            empty.tbt_percentile(95)
        assert empty.token_hit_rate == 0.0

    def test_cache_stats_snapshot_attached(self, hybrid):
        trace = generate_trace("lmsys", n_sessions=4, seed=55)
        result = simulate_trace_iteration(hybrid, _cache(hybrid), trace)
        assert result.cache_stats["lookups"] == trace.n_requests
