"""Tests for time-resolved analysis + property tests for persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import windowed_hit_rate
from repro.core.cache import MarconiCache
from repro.core.persistence import load_cache, save_cache
from repro.engine.results import RequestRecord
from repro.models.presets import tiny_test_model


def record(i, input_len=100, hit=0):
    return RequestRecord(
        session_id=0, round_index=i, arrival_time=float(i), service_start=float(i),
        prefill_seconds=0.1, ttft=0.1, input_len=input_len, hit_tokens=hit,
        output_len=5, reused_bytes=0, flops_saved=0.0,
    )


class TestWindowedHitRate:
    def test_windows_partition_records(self):
        records = [record(i, hit=50 if i >= 10 else 0) for i in range(25)]
        points = windowed_hit_rate(records, window=10)
        assert [p.requests for p in points] == [10, 10, 5]
        assert points[0].token_hit_rate == 0.0
        assert points[-1].token_hit_rate == pytest.approx(0.5)

    def test_orders_by_service_start(self):
        records = [record(5), record(1, hit=100), record(3)]
        points = windowed_hit_rate(records, window=1)
        assert [p.end_time for p in points] == [1.0, 3.0, 5.0]
        assert points[0].token_hit_rate == 1.0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            windowed_hit_rate([record(0)], window=0)

    def test_empty_records(self):
        assert windowed_hit_rate([], window=5) == []

    def test_window_rate_is_token_weighted(self):
        """A window's rate is hits over input tokens, not a mean of rates."""
        points = windowed_hit_rate([record(0, 100, 0), record(1, 300, 300)], window=2)
        assert points[0].token_hit_rate == pytest.approx(0.75)

    def test_single_window_matches_aggregate(self, hybrid):
        result = _real_run(hybrid, seed=99)
        (point,) = windowed_hit_rate(result.records, window=result.n_requests)
        assert point.requests == result.n_requests
        assert point.token_hit_rate == pytest.approx(result.token_hit_rate)

    def test_windows_reweight_to_aggregate(self, hybrid):
        """Weighting each window by its input tokens recovers the run's rate."""
        result = _real_run(hybrid, seed=99)
        ordered = sorted(result.records, key=lambda r: r.service_start)
        points = windowed_hit_rate(result.records, window=7)
        weights = [
            sum(r.input_len for r in ordered[i : i + 7])
            for i in range(0, len(ordered), 7)
        ]
        hits = sum(p.token_hit_rate * w for p, w in zip(points, weights))
        assert hits / sum(weights) == pytest.approx(result.token_hit_rate)

    def test_real_cache_warms_up(self, hybrid):
        """A cold cache serves its first request with no hits; later
        windows reuse what earlier rounds left behind."""
        result = _real_run(hybrid, seed=101, n_sessions=20)
        points = windowed_hit_rate(result.records, window=1)
        assert points[0].token_hit_rate == 0.0
        assert max(p.token_hit_rate for p in points[1:]) > 0.0


def _real_run(hybrid, seed, n_sessions=6):
    from repro.engine.server import simulate_trace
    from repro.models.memory import node_state_bytes
    from repro.workloads import generate_trace

    trace = generate_trace("lmsys", n_sessions=n_sessions, seed=seed)
    cache = MarconiCache(hybrid, 50 * node_state_bytes(hybrid, 3000, True), alpha=1.0)
    return simulate_trace(hybrid, cache, trace)


TOKENS = st.lists(st.integers(0, 3), min_size=1, max_size=10)


class TestPersistenceProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        requests=st.lists(st.tuples(TOKENS, TOKENS), min_size=1, max_size=12),
        queries=st.lists(TOKENS, min_size=1, max_size=6),
    )
    def test_roundtrip_preserves_match_semantics(self, tmp_path_factory, requests, queries):
        """After save/load, every query sees the identical hit length."""
        model = tiny_test_model()
        cache = MarconiCache(model, int(1e12), alpha=1.0)
        clock = 0.0
        for inp, out in requests:
            clock += 1.0
            s = cache.begin(np.asarray(inp, dtype=np.int32), clock)
            s.commit(np.asarray(inp + out, dtype=np.int32), clock + 0.5)
        path = tmp_path_factory.mktemp("props") / "cache.npz"
        save_cache(cache, path)
        warm = load_cache(model, int(1e12), path, alpha=1.0)
        warm.tree.check_integrity()
        assert warm.used_bytes == cache.used_bytes
        for query in queries:
            arr = np.asarray(query, dtype=np.int32)
            a = cache.tree.match(arr)
            b = warm.tree.match(arr)
            assert a.matched_len == b.matched_len
            node_a = a.deepest_ssm_node(max_seq_len=len(arr) - 1)
            node_b = b.deepest_ssm_node(max_seq_len=len(arr) - 1)
            assert (node_a.seq_len if node_a else 0) == (
                node_b.seq_len if node_b else 0
            )
