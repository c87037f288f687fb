"""Tests for multi-executor serving and the throughput/summary metrics."""

import json

import numpy as np
import pytest

from repro.core.cache import MarconiCache
from repro.engine.results import EngineResult, RequestRecord
from repro.engine.server import simulate_trace
from repro.metrics.export import summary_dict
from repro.metrics.throughput import makespan_seconds, prefill_throughput_tokens_per_s
from repro.models.memory import node_state_bytes
from repro.workloads import generate_trace


def _cache(hybrid, seqs=50):
    return MarconiCache(hybrid, seqs * node_state_bytes(hybrid, 2000, True), alpha=1.0)


class TestMultiExecutor:
    def test_rejects_zero_executors(self, hybrid):
        trace = generate_trace("lmsys", n_sessions=1, seed=31)
        with pytest.raises(ValueError, match="n_executors"):
            simulate_trace(hybrid, _cache(hybrid), trace, n_executors=0)

    def test_serves_all_requests(self, hybrid):
        trace = generate_trace("lmsys", n_sessions=10, seed=31)
        result = simulate_trace(hybrid, _cache(hybrid), trace, n_executors=4)
        assert result.n_requests == trace.n_requests

    def test_more_executors_cut_queueing(self, hybrid):
        """Bursty identical arrivals (self-consistency) queue on one
        executor and overlap on many."""
        trace = generate_trace("selfconsistency", n_sessions=6, seed=32, session_rate=2.0)
        serial = simulate_trace(hybrid, _cache(hybrid), trace, n_executors=1)
        parallel = simulate_trace(hybrid, _cache(hybrid), trace, n_executors=8)
        assert parallel.ttft_percentile(95) < serial.ttft_percentile(95)
        assert parallel.mean_queue_delay() <= serial.mean_queue_delay()

    def test_single_executor_unchanged_by_default(self, hybrid):
        trace = generate_trace("lmsys", n_sessions=6, seed=33)
        a = simulate_trace(hybrid, _cache(hybrid), trace)
        b = simulate_trace(hybrid, _cache(hybrid), trace, n_executors=1)
        assert a.token_hit_rate == b.token_hit_rate
        assert np.allclose(a.ttfts(), b.ttfts())

    def test_concurrent_prefills_overlap_in_time(self, hybrid):
        trace = generate_trace("selfconsistency", n_sessions=3, seed=34, session_rate=5.0)
        result = simulate_trace(hybrid, _cache(hybrid), trace, n_executors=4)
        intervals = sorted(
            (r.service_start, r.service_start + r.prefill_seconds)
            for r in result.records
        )
        overlaps = sum(
            1
            for (s1, e1), (s2, _) in zip(intervals, intervals[1:])
            if s2 < e1
        )
        assert overlaps > 0


def _toy_result():
    records = [
        RequestRecord(
            session_id=0, round_index=0, arrival_time=0.0, service_start=0.0,
            prefill_seconds=1.0, ttft=1.0, input_len=1000, hit_tokens=0,
            output_len=10, reused_bytes=0, flops_saved=0.0,
        ),
        RequestRecord(
            session_id=0, round_index=1, arrival_time=2.0, service_start=2.0,
            prefill_seconds=1.0, ttft=1.0, input_len=1000, hit_tokens=600,
            output_len=10, reused_bytes=100, flops_saved=1e9,
        ),
    ]
    return EngineResult(policy="toy", records=records)


class TestThroughput:
    def test_makespan(self):
        assert makespan_seconds(_toy_result()) == pytest.approx(3.0)
        assert makespan_seconds(EngineResult(policy="empty")) == 0.0

    def test_prefill_throughput_counts_hits(self):
        assert prefill_throughput_tokens_per_s(_toy_result()) == pytest.approx(2000 / 3)

    def test_utilization(self):
        """Two 1 s prefills over a 3 s span keep one executor 2/3 busy."""
        result = _toy_result()
        result.running_series = [(0.0, 1), (1.0, 0), (2.0, 1), (3.0, 0)]
        assert result.executor_utilization() == pytest.approx(2.0 / 3.0)
        result.max_running = 2
        assert result.executor_utilization() == pytest.approx(1.0 / 3.0)
        result.max_running = 0
        assert result.executor_utilization() == 0.0

    def test_empty_result_is_zero(self):
        empty = EngineResult(policy="empty")
        assert prefill_throughput_tokens_per_s(empty) == 0.0
        assert empty.executor_utilization() == 0.0


class TestExport:
    def test_summary_fields(self):
        summary = summary_dict(_toy_result())
        assert summary["policy"] == "toy"
        assert summary["n_requests"] == 2
        assert summary["token_hit_rate"] == pytest.approx(600 / 2000)
        assert "ttft_p95" in summary

    def test_json_roundtrip(self):
        loaded = json.loads(json.dumps(summary_dict(_toy_result())))
        assert loaded["policy"] == "toy"
        assert loaded["token_hit_rate"] == pytest.approx(0.3)
        assert loaded["total_flops_saved"] == pytest.approx(1e9)
        assert loaded["makespan_seconds"] == pytest.approx(3.0)

    def test_empty_result_has_no_ttft_percentiles(self):
        summary = summary_dict(EngineResult(policy="empty"))
        assert summary["n_requests"] == 0
        assert summary["token_hit_rate"] == 0.0
        assert not any(key.startswith("ttft_") for key in summary)

    def test_real_run_exports(self, hybrid):
        trace = generate_trace("lmsys", n_sessions=5, seed=35)
        result = simulate_trace(hybrid, _cache(hybrid), trace, policy_name="marconi")
        loaded = json.loads(json.dumps(summary_dict(result)))
        assert loaded["policy"] == "marconi"
        assert loaded["n_requests"] == result.n_requests == trace.n_requests
        assert loaded["token_hit_rate"] == pytest.approx(result.token_hit_rate)
        assert loaded["ttft_p5"] <= loaded["ttft_p50"] <= loaded["ttft_p95"]
        assert loaded["cache_stats"] == json.loads(json.dumps(result.cache_stats))
