"""Tests for the offline analysis tools (clairvoyant replay, reuse taxonomy)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ClairvoyantEviction,
    ReuseClass,
    TaxonomyReport,
    clairvoyant_replay,
    classify_trace,
)
from repro.core.cache import MarconiCache
from repro.core.eviction import EvictionCandidate
from repro.core.node import RadixNode
from repro.models.memory import node_state_bytes
from repro.workloads.lmsys import generate_lmsys_trace
from repro.workloads.trace import Trace, TraceRound, TraceSession


def _session(session_id, arrival, rounds, think=1.0):
    """Build a session from [(input_tokens, output_tokens), ...] pairs."""
    trace_rounds = [
        TraceRound(
            new_input_tokens=np.asarray(i, dtype=np.int32),
            output_tokens=np.asarray(o, dtype=np.int32),
        )
        for i, o in rounds
    ]
    think_times = [0.0] + [think] * (len(rounds) - 1)
    return TraceSession(
        session_id=session_id,
        arrival_time=arrival,
        rounds=trace_rounds,
        think_times=think_times,
    )


def _candidate(node_tokens, last_access=0.0, efficiency=1.0, freeable=100):
    root = RadixNode(b"", parent=None, now=0.0)
    node = RadixNode(np.asarray(node_tokens, dtype=np.int32).tobytes(), parent=root, now=last_access)
    node.last_access = last_access
    return EvictionCandidate(
        node=node,
        freeable_bytes=freeable,
        flop_efficiency=efficiency,
        last_access=last_access,
        is_leaf=True,
    )


class TestClairvoyantEviction:
    def test_next_use_finds_extending_request(self):
        schedule = [
            np.asarray([1, 2, 3], dtype=np.int32),
            np.asarray([1, 2, 3, 4, 5], dtype=np.int32),
            np.asarray([9, 9], dtype=np.int32),
        ]
        policy = ClairvoyantEviction(schedule)
        assert policy._next_use(np.asarray([1, 2], dtype=np.int32)) == 0.0
        policy.advance(1)
        assert policy._next_use(np.asarray([1, 2], dtype=np.int32)) == 1.0
        assert policy._next_use(np.asarray([7], dtype=np.int32)) == float("inf")

    def test_exact_length_match_does_not_count(self):
        # A request equal to the prefix leaves no final token to prefill.
        schedule = [np.asarray([1, 2], dtype=np.int32)]
        policy = ClairvoyantEviction(schedule)
        assert policy._next_use(np.asarray([1, 2], dtype=np.int32)) == float("inf")

    def test_evicts_never_reused_first(self):
        schedule = [np.asarray([1, 2, 3, 4], dtype=np.int32)]
        policy = ClairvoyantEviction(schedule)
        reused = _candidate([1, 2], efficiency=0.1)
        dead = _candidate([5, 6], efficiency=99.0)
        assert policy.select_victim([reused, dead]) is dead

    def test_among_reused_evicts_farthest(self):
        schedule = [
            np.asarray([1, 2, 9], dtype=np.int32),
            np.asarray([3, 4, 9], dtype=np.int32),
        ]
        policy = ClairvoyantEviction(schedule)
        soon = _candidate([1, 2])
        later = _candidate([3, 4])
        assert policy.select_victim([soon, later]) is later

    def test_advance_bounds(self):
        policy = ClairvoyantEviction([np.asarray([1], dtype=np.int32)])
        with pytest.raises(ValueError):
            policy.advance(-1)
        with pytest.raises(ValueError):
            policy.advance(2)

    def test_empty_candidates_raise(self):
        with pytest.raises(ValueError):
            ClairvoyantEviction([]).select_victim([])


class TestClairvoyantReplay:
    def test_unbounded_cache_matches_lru_replay(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=10, seed=7)
        huge = int(1e13)
        oracle = clairvoyant_replay(hybrid, trace, huge)
        lru = MarconiCache(hybrid, huge, eviction="lru")
        for now, _, _, inp, full in trace.iter_requests_nominal():
            s = lru.begin(inp, now)
            s.commit(full, now)
        assert oracle.evictions == 0
        assert oracle.token_hit_rate == pytest.approx(lru.stats.token_hit_rate)

    def test_beats_lru_under_contention(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=24, seed=3)
        capacity = 6 * node_state_bytes(hybrid, 2000, True)
        oracle = clairvoyant_replay(hybrid, trace, capacity)
        lru = MarconiCache(hybrid, capacity, eviction="lru")
        for now, _, _, inp, full in trace.iter_requests_nominal():
            s = lru.begin(inp, now)
            s.commit(full, now)
        assert oracle.evictions > 0
        assert oracle.token_hit_rate >= lru.stats.token_hit_rate

    def test_per_request_accounting(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=5, seed=1)
        result = clairvoyant_replay(hybrid, trace, int(1e13))
        assert len(result.per_request_hits) == result.n_requests == trace.n_requests
        assert sum(result.per_request_hits) == result.hit_tokens
        assert result.input_tokens == trace.total_input_tokens

    def test_empty_trace_raises(self, hybrid):
        empty = Trace(name="empty", seed=0, sessions=[])
        with pytest.raises(ValueError):
            clairvoyant_replay(hybrid, empty, int(1e9))


class TestTaxonomy:
    def test_first_request_is_fresh(self):
        trace = Trace(
            name="t", seed=0,
            sessions=[_session(0, 0.0, [(list(range(10)), [99, 98])])],
        )
        report = classify_trace(trace)
        assert report.n_requests == 1
        request = report.requests[0]
        assert request.reuse_class is ReuseClass.NONE
        assert request.fresh == request.input_len == 10

    def test_conversation_history_is_input_output(self):
        trace = Trace(
            name="t", seed=0,
            sessions=[
                _session(0, 0.0, [
                    (list(range(100, 110)), [201, 202]),
                    (list(range(300, 305)), [203]),
                ])
            ],
        )
        report = classify_trace(trace)
        round2 = report.requests[1]
        assert round2.reuse_class is ReuseClass.INPUT_OUTPUT
        # Round 1's input (10 tokens) was a previous *input*; its output
        # (2 tokens) extends the reusable span through output territory.
        assert round2.purely_input == 10
        assert round2.input_output == 2

    def test_shared_prompt_is_purely_input(self):
        shared = list(range(500, 540))
        trace = Trace(
            name="t", seed=0,
            sessions=[
                _session(0, 0.0, [(shared + [7, 8], [11])]),
                _session(1, 1.0, [(shared + [9, 10], [12])]),
            ],
        )
        report = classify_trace(trace)
        second = report.requests[1]
        assert second.reuse_class is ReuseClass.PURELY_INPUT
        assert second.purely_input == len(shared)
        assert second.input_output == 0
        assert report.branch_splits == 1

    def test_aggregates_are_consistent(self):
        trace = generate_lmsys_trace(n_sessions=12, seed=5)
        report = classify_trace(trace)
        assert report.input_tokens == trace.total_input_tokens
        assert (
            report.purely_input_tokens
            + report.input_output_tokens
            + report.fresh_tokens
            == report.input_tokens
        )
        assert 0.0 <= report.reusable_token_share <= 1.0
        assert sum(report.class_counts().values()) == report.n_requests

    def test_share_bounds_unbounded_cache_hit_rate(self, hybrid):
        """No cache can beat the trace's reuse opportunity."""
        trace = generate_lmsys_trace(n_sessions=10, seed=9)
        report = classify_trace(trace)
        cache = MarconiCache(hybrid, int(1e13), eviction="lru")
        for now, _, _, inp, full in trace.iter_requests_nominal():
            s = cache.begin(inp, now)
            s.commit(full, now)
        assert cache.stats.token_hit_rate <= report.reusable_token_share + 1e-9

    def test_summary_table_renders(self):
        trace = generate_lmsys_trace(n_sessions=4, seed=2)
        table = classify_trace(trace).summary_table()
        assert "purely_input" in table and "input_output" in table

    def test_empty_report_properties(self):
        report = TaxonomyReport(trace_name="empty")
        assert report.reusable_token_share == 0.0
        assert report.input_tokens == 0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n_sessions=st.integers(1, 8))
    def test_reuse_never_exceeds_input(self, seed, n_sessions):
        trace = generate_lmsys_trace(n_sessions=n_sessions, seed=seed)
        report = classify_trace(trace)
        for request in report.requests:
            assert 0 <= request.purely_input
            assert 0 <= request.input_output
            # At least the final input token is never reusable.
            assert request.total_reusable <= request.input_len - 1
