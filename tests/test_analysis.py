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
from repro.analysis.belady import Victim, _clairvoyant_cache, victim_profile
from repro.core.cache import MarconiCache
from repro.core.eviction import EvictionCandidate
from repro.core.interfaces import replay_log
from repro.core.node import RadixNode
from repro.models.memory import node_state_bytes
from repro.workloads import generate_trace
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


def _schedule(log):
    """The inputs of ``log``'s begins, in order."""
    return [tokens for event, _, tokens, _ in log if event == "begin"]


def _next_use(policy, path):
    """The index of the next scheduled input from the cursor that strictly
    extends ``path``."""
    return policy._first_at_cursor(policy._uses_of(np.asarray(path, dtype=np.int32)))


class TestClairvoyantEviction:
    def test_next_use_finds_extending_request(self):
        schedule = [
            np.asarray([1, 2, 3], dtype=np.int32),
            np.asarray([1, 2, 3, 4, 5], dtype=np.int32),
            np.asarray([9, 9], dtype=np.int32),
        ]
        policy = ClairvoyantEviction(schedule)
        assert _next_use(policy, [1, 2]) == 0.0
        policy.stats.lookups = 1
        assert _next_use(policy, [1, 2]) == 1.0
        assert _next_use(policy, [7]) == float("inf")

    def test_exact_length_match_does_not_count(self):
        # A request equal to the prefix leaves no final token to prefill.
        schedule = [np.asarray([1, 2], dtype=np.int32)]
        policy = ClairvoyantEviction(schedule)
        assert _next_use(policy, [1, 2]) == float("inf")

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

    def test_the_cursor_is_the_serving_cache_begin_count(self, hybrid):
        log = generate_trace("lmsys", n_sessions=3, seed=5).nominal_log()
        policy = ClairvoyantEviction(_schedule(log))
        assert policy.cursor == 0
        cache = _clairvoyant_cache(hybrid, int(1e13), policy)
        replay_log(cache, log[:8])
        assert policy.stats is cache.stats and policy.cursor == 4

    def test_empty_candidates_raise(self):
        with pytest.raises(ValueError):
            ClairvoyantEviction([]).select_victim([])


class TestClairvoyantReplay:
    def test_unbounded_cache_matches_lru_replay(self, hybrid):
        log = generate_trace("lmsys", n_sessions=10, seed=7).nominal_log()
        huge = int(1e13)
        oracle = clairvoyant_replay(hybrid, log, huge)
        lru = MarconiCache(hybrid, huge, eviction="lru")
        replay_log(lru, log)
        assert oracle.evictions == 0
        assert oracle.token_hit_rate == pytest.approx(lru.stats.token_hit_rate)

    def test_beats_lru_under_contention(self, hybrid):
        log = generate_trace("lmsys", n_sessions=24, seed=3).nominal_log()
        capacity = 6 * node_state_bytes(hybrid, 2000, True)
        oracle = clairvoyant_replay(hybrid, log, capacity)
        lru = MarconiCache(hybrid, capacity, eviction="lru")
        replay_log(lru, log)
        assert oracle.evictions > 0
        assert oracle.token_hit_rate >= lru.stats.token_hit_rate

    def test_the_replay_binds_its_policy(self, hybrid):
        """The clairvoyant policy replaces the cache's LRU heap as the
        index's reader, so no candidate change feeds the discarded heap;
        every victim and hit stays what the unbound replay made."""
        log = generate_trace("lmsys", n_sessions=24, seed=3).nominal_log()
        capacity = 6 * node_state_bytes(hybrid, 2000, True)
        policy = ClairvoyantEviction(_schedule(log))
        cache = _clairvoyant_cache(hybrid, capacity, policy)
        hits = replay_log(cache, log)
        assert cache.policy is policy
        assert cache.eviction_index.on_candidate_changed is None
        assert cache.stats.evictions == 160
        assert (len(hits), sum(hits)) == (86, 116_857)
        assert hits == clairvoyant_replay(hybrid, log, capacity).per_request_hits
        assert len(victim_profile(hybrid, log, capacity, mean_think_s=5.0)) == 160

    def test_per_request_accounting(self, hybrid):
        trace = generate_trace("lmsys", n_sessions=5, seed=1)
        result = clairvoyant_replay(hybrid, trace.nominal_log(), int(1e13))
        assert len(result.per_request_hits) == result.n_requests == trace.n_requests
        assert sum(result.per_request_hits) == result.hit_tokens
        assert result.input_tokens == trace.total_input_tokens

    def test_empty_trace_raises(self, hybrid):
        empty = Trace(name="empty", seed=0, sessions=[]).nominal_log()
        with pytest.raises(ValueError):
            clairvoyant_replay(hybrid, empty, int(1e9))
        with pytest.raises(ValueError):
            victim_profile(hybrid, empty, int(1e9), mean_think_s=5.0)


def _rescan_next_use(schedule, cursor, path) -> float:
    """The reference: scan the schedule from ``cursor`` for the first input
    that strictly extends ``path``."""
    for index in range(cursor, len(schedule)):
        future = schedule[index]
        if len(future) > len(path) and np.array_equal(future[: len(path)], path):
            return float(index)
    return float("inf")


class RescanClairvoyant(ClairvoyantEviction):
    """The reference: a rescan from a cursor the replay loop sets to the
    requests served so far, the one being served included."""

    cursor = 0

    def _node_next_use(self, node):
        return _rescan_next_use(self.schedule, self.cursor, node.path_tokens())


class _PathNode:
    """Stands in for a tree node: a path and its length."""

    def __init__(self, path):
        self.path = np.asarray(path, dtype=np.int32)

    @property
    def seq_len(self):
        return len(self.path)

    def path_tokens(self):
        return self.path


class TestNextUseIndex:
    """``ClairvoyantEviction`` looks a candidate up in a per-node index of
    the schedule; it must answer what a rescan of the schedule answers."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_index_equals_a_rescan(self, seed):
        schedule = _schedule(generate_trace("lmsys", n_sessions=12, seed=seed).nominal_log())
        rng = np.random.default_rng(seed)
        paths = [np.asarray([7, 7, 7], dtype=np.int32)]  # extended by nothing
        for inp in schedule:
            # The input itself: equal is not a use, its next round is.
            paths.append(np.asarray(inp))
            paths.append(np.asarray(inp[: int(rng.integers(1, len(inp) + 1))]))
        nodes = [_PathNode(path) for path in paths]
        policy = ClairvoyantEviction(schedule)
        n = len(schedule)
        for cursor in (0, n // 3, n // 2, n - 1, n, 1):  # forward, then back
            policy.stats.lookups = cursor
            for path, node in zip(paths, nodes):
                expected = _rescan_next_use(schedule, cursor, path)
                assert _next_use(policy, path) == expected
                assert policy._node_next_use(node) == expected

    def test_a_truncated_node_is_looked_up_again(self):
        schedule = [
            np.asarray([1, 2, 3, 4], dtype=np.int32),
            np.asarray([1, 2, 9], dtype=np.int32),
        ]
        policy = ClairvoyantEviction(schedule)
        node = _PathNode([1, 2, 3])
        policy.stats.lookups = 1
        assert policy._node_next_use(node) == float("inf")
        node.path = node.path[:2]
        assert policy._node_next_use(node) == 1.0

    def test_replay_equals_a_rescan_replay(self, hybrid):
        """Under contention, every victim and so every hit is the rescan's,
        whose cursor the loop moves: the cache's begin count is that cursor."""
        log = generate_trace("lmsys", n_sessions=24, seed=3).nominal_log()
        capacity = 6 * node_state_bytes(hybrid, 2000, True)
        indexed = clairvoyant_replay(hybrid, log, capacity)
        cache = MarconiCache(hybrid, capacity, eviction="lru")
        cache.policy = policy = RescanClairvoyant(_schedule(log))
        hits = []
        for index in range(len(log) // 2):  # a begin and its commit
            policy.cursor = index + 1
            hits += replay_log(cache, log[2 * index : 2 * index + 2])
        assert cache.stats.evictions > 0
        assert indexed.evictions == cache.stats.evictions
        assert indexed.per_request_hits == hits


class TestVictimProfile:
    """``victim_profile`` recounted: a recorder keeps each selection's
    candidates and derives every field the plain way, with the rescan
    for re-use."""

    def test_recounts_every_victim_on_a_seeded_trace(self, hybrid):
        log = generate_trace("lmsys", n_sessions=24, seed=3).nominal_log()
        capacity = 6 * node_state_bytes(hybrid, 2000, True)
        profile = victim_profile(hybrid, log, capacity, mean_think_s=5.0)
        assert len(profile) == clairvoyant_replay(hybrid, log, capacity).evictions

        begins = log[::2]  # ("begin", (session, round), input, now)
        expected = []

        def rank(values, value):
            below = sum(v < value for v in values)
            tied = sum(v == value for v in values)
            return (below + (tied + 1) / 2) / len(values)

        class Recorder(RescanClairvoyant):
            def select_victim(self, candidates):
                victim = super().select_victim(candidates)
                serving = self.cursor - 1
                lru = min(candidates, key=lambda c: (c.last_access, c.node.node_id))
                ancestors, node = [], victim.node.parent
                while node is not None:
                    ancestors.append(node)
                    node = node.parent
                last_use = max(
                    i for i in range(serving + 1) if begins[i][3] == victim.last_access
                )
                expected.append(
                    Victim(
                        recency_rank=rank(
                            [c.last_access for c in candidates], victim.last_access
                        ),
                        efficiency_rank=rank(
                            [c.flop_efficiency for c in candidates],
                            victim.flop_efficiency,
                        ),
                        reuse_distance=_rescan_next_use(
                            self.schedule, self.cursor, victim.node.path_tokens()
                        )
                        - serving,
                        same_as_lru=lru is victim,
                        length=len(victim.node.path_tokens()),
                        lru_length=len(lru.node.path_tokens()),
                        depth=len(ancestors),
                        is_leaf=not victim.node.children,
                        session_round=begins[last_use][1][1],
                        idle_over_think=(begins[serving][3] - victim.last_access) / 5.0,
                    )
                )
                return victim

        cache = MarconiCache(hybrid, capacity, eviction="lru")
        cache.policy = policy = Recorder(_schedule(log))
        for index in range(len(begins)):
            policy.cursor = index + 1
            replay_log(cache, log[2 * index : 2 * index + 2])
        assert len(expected) > 100
        assert profile == expected
        # The trace has victims of every kind the profile tells apart.
        assert {v.never_reused for v in profile} == {True, False}
        assert {v.same_as_lru for v in profile} == {True, False}
        assert {v.is_leaf for v in profile} == {True, False}
        assert len({v.session_round for v in profile}) > 2


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
        trace = generate_trace("lmsys", n_sessions=12, seed=5)
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
        trace = generate_trace("lmsys", n_sessions=10, seed=9)
        report = classify_trace(trace)
        cache = MarconiCache(hybrid, int(1e13), eviction="lru")
        replay_log(cache, trace.nominal_log())
        assert cache.stats.token_hit_rate <= report.reusable_token_share + 1e-9

    def test_summary_table_renders(self):
        trace = generate_trace("lmsys", n_sessions=4, seed=2)
        table = classify_trace(trace).summary_table()
        assert "purely_input" in table and "input_output" in table

    def test_empty_report_properties(self):
        report = TaxonomyReport(trace_name="empty")
        assert report.reusable_token_share == 0.0
        assert report.input_tokens == 0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n_sessions=st.integers(1, 8))
    def test_reuse_never_exceeds_input(self, seed, n_sessions):
        trace = generate_trace("lmsys", n_sessions=n_sessions, seed=seed)
        report = classify_trace(trace)
        for request in report.requests:
            assert 0 <= request.purely_input
            assert 0 <= request.input_output
            # At least the final input token is never reusable.
            assert request.total_reusable <= request.input_len - 1
