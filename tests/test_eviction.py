"""Tests for eviction policies and MarconiCache's eviction mechanics."""

import numpy as np
import pytest

from repro.core.cache import MarconiCache
from repro.core.eviction import (
    HEAP_KEYS,
    EvictionCandidate,
    FlopAwareEviction,
    HeapEviction,
    LRUKEviction,
    RandomEviction,
    _rank_normalize,
    make_eviction_policy,
)
from repro.core.node import RadixNode
from repro.models.memory import model_recurrent_bytes, node_state_bytes

#: Every name ``make_eviction_policy`` knows.
POLICY_NAMES = ("flop_aware", "gds", "gdsf", "lfu", "lru", "lru_k", "random")


def candidate(node_id_time: float, efficiency: float, freeable: int = 100) -> EvictionCandidate:
    node = RadixNode(np.asarray([1], dtype=np.int32).tobytes(), parent=None, now=node_id_time)
    node.last_access = node_id_time
    return EvictionCandidate(
        node=node,
        freeable_bytes=freeable,
        flop_efficiency=efficiency,
        last_access=node_id_time,
        is_leaf=True,
    )


class TestLRU:
    def test_picks_oldest(self):
        cands = [candidate(3.0, 1.0), candidate(1.0, 99.0), candidate(2.0, 0.0)]
        assert make_eviction_policy("lru").select_victim(cands).last_access == 1.0

    def test_tie_break_is_deterministic(self):
        a, b = candidate(1.0, 1.0), candidate(1.0, 1.0)
        victim = make_eviction_policy("lru").select_victim([b, a])
        assert victim.node.node_id == min(a.node.node_id, b.node.node_id)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            make_eviction_policy("lru").select_victim([])


class TestFlopAware:
    def test_alpha_zero_is_lru(self):
        cands = [candidate(3.0, 100.0), candidate(1.0, 999.0), candidate(2.0, 0.0)]
        assert FlopAwareEviction(alpha=0.0).select_victim(cands).last_access == 1.0

    def test_high_alpha_ranks_by_efficiency(self):
        cands = [candidate(1.0, 100.0), candidate(3.0, 1.0), candidate(2.0, 50.0)]
        victim = FlopAwareEviction(alpha=100.0).select_victim(cands)
        assert victim.flop_efficiency == 1.0

    def test_balances_recency_and_efficiency(self):
        # Old but efficient vs fresh but worthless: alpha=1 evicts the
        # worthless one when efficiency gap dominates the recency gap.
        old_valuable = candidate(1.0, 1000.0)
        fresh_worthless = candidate(2.0, 1.0)
        middle = candidate(1.5, 500.0)
        victim = FlopAwareEviction(alpha=2.0).select_victim(
            [old_valuable, fresh_worthless, middle]
        )
        assert victim is fresh_worthless

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            FlopAwareEviction(alpha=-1.0)

    def test_scores_are_bounded(self):
        cands = [candidate(float(i), float(i * 7 % 5)) for i in range(10)]
        policy = FlopAwareEviction(alpha=1.0)
        for score in policy.scores(cands):
            assert 0.0 < score <= 2.0


class TestRankNormalize:
    def test_single_value(self):
        assert _rank_normalize([5.0]) == [1.0]

    def test_distinct_values_uniform(self):
        ranks = _rank_normalize([30.0, 10.0, 20.0])
        assert ranks == [1.0, 1 / 3, 2 / 3]

    def test_ties_get_average_rank(self):
        ranks = _rank_normalize([10.0, 10.0, 20.0])
        assert ranks[0] == ranks[1] == pytest.approx(1.5 / 3)
        assert ranks[2] == 1.0

    def test_scale_free(self):
        a = _rank_normalize([1.0, 2.0, 3.0])
        b = _rank_normalize([1e6, 2e12, 3e18])
        assert a == b


class TestGDSF:
    def test_prefers_low_frequency_low_efficiency(self):
        cheap = candidate(1.0, 1.0)
        valuable = candidate(1.0, 1000.0)
        policy = make_eviction_policy("gdsf")
        assert policy.select_victim([cheap, valuable]) is cheap


class TestLFU:
    def test_picks_least_hit(self):
        hot, cold = candidate(1.0, 1.0), candidate(2.0, 1.0)
        hot.node.hit_count = 5
        assert make_eviction_policy("lfu").select_victim([hot, cold]) is cold

    def test_frequency_ties_break_by_recency(self):
        older, newer = candidate(1.0, 1.0), candidate(2.0, 1.0)
        older.node.hit_count = newer.node.hit_count = 3
        assert make_eviction_policy("lfu").select_victim([newer, older]) is older


class TestLRUK:
    def test_cold_entries_evicted_before_established_ones(self):
        policy = LRUKEviction(k=2)
        established, cold = candidate(1.0, 1.0), candidate(9.0, 1.0)
        policy.notify_access(established.node, 2.0)
        policy.notify_access(established.node, 3.0)
        # `cold` has no recorded history -> backward K-distance is -inf.
        assert policy.select_victim([established, cold]) is cold

    def test_orders_by_kth_most_recent_access(self):
        policy = LRUKEviction(k=2)
        a, b = candidate(1.0, 1.0), candidate(2.0, 1.0)
        for t in (1.0, 5.0):
            policy.notify_access(a.node, t)
        for t in (2.0, 3.0):
            policy.notify_access(b.node, t)
        # a's 2nd-most-recent access (1.0) predates b's (2.0).
        assert policy.select_victim([a, b]) is a

    def test_history_window_slides(self):
        policy = LRUKEviction(k=2)
        a = candidate(1.0, 1.0)
        for t in (1.0, 2.0, 10.0):
            policy.notify_access(a.node, t)
        assert policy._kth_access_key(a)[0] == 2.0

    def test_eviction_drops_history(self):
        policy = LRUKEviction(k=2)
        a = candidate(1.0, 1.0)
        policy.notify_access(a.node, 1.0)
        policy.notify_eviction(a)
        assert a.node.node_id not in policy._history
        policy.reset()
        assert not policy._history

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            LRUKEviction(k=0)


class TestGDS:
    def test_prefers_evicting_large_entries(self):
        small = candidate(1.0, 1000.0, freeable=10)
        large = candidate(1.0, 1000.0, freeable=10_000)
        assert make_eviction_policy("gds").select_victim([small, large]) is large

    def test_blind_to_flop_efficiency(self):
        # Equal sizes: the size proxy cannot tell a 30K-prefix checkpoint
        # from a 16-token one (the paper's section 4.2 critique).
        cheap = candidate(1.0, 1.0, freeable=500)
        valuable = candidate(1.0, 9999.0, freeable=500)
        victim = make_eviction_policy("gds").select_victim([valuable, cheap])
        assert victim.node.node_id == min(cheap.node.node_id, valuable.node.node_id)


class TestRandom:
    def test_deterministic_with_seed(self):
        cands = [candidate(float(i), 1.0) for i in range(10)]
        picks_a = [RandomEviction(seed=7).select_victim(cands) for _ in range(3)]
        picks_b = [RandomEviction(seed=7).select_victim(cands) for _ in range(3)]
        assert [c.node.node_id for c in picks_a] == [c.node.node_id for c in picks_b]

    def test_reset_replays_the_stream(self):
        cands = [candidate(float(i), 1.0) for i in range(10)]
        policy = RandomEviction(seed=3)
        first = [policy.select_victim(cands).node.node_id for _ in range(5)]
        policy.reset()
        second = [policy.select_victim(cands).node.node_id for _ in range(5)]
        assert first == second


class TestPolicyContract:
    """Invariants every registered policy must satisfy."""

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_victim_is_a_candidate(self, name):
        policy = make_eviction_policy(name, 1.0)
        cands = [candidate(float(i), float((i * 13) % 7), freeable=100 + i) for i in range(8)]
        for i, c in enumerate(cands):
            c.node.hit_count = (i * 5) % 3
        assert policy.select_victim(cands) in cands

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_empty_candidates_raise(self, name):
        with pytest.raises(ValueError):
            make_eviction_policy(name).select_victim([])

    @pytest.mark.parametrize("name", sorted(set(POLICY_NAMES) - {"random"}))
    def test_selection_is_deterministic(self, name):
        cands = [candidate(float(i % 4), float((i * 3) % 5)) for i in range(9)]
        a = make_eviction_policy(name, 1.0).select_victim(cands)
        b = make_eviction_policy(name, 1.0).select_victim(cands)
        assert a is b

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_runs_end_to_end_in_cache(self, name, hybrid, tokens):
        from repro.models.memory import node_state_bytes

        per_seq = node_state_bytes(hybrid, 450, True)
        cache = MarconiCache(hybrid, capacity_bytes=3 * per_seq, eviction=name, alpha=1.0)
        for i in range(6):
            seq = tokens(400, seed=4000 + i)
            s = cache.begin(seq, float(i))
            s.commit(np.concatenate([seq, tokens(50, seed=5000 + i)]), float(i) + 0.5)
        assert cache.used_bytes <= cache.capacity_bytes
        assert cache.used_bytes == cache.recompute_used_bytes()
        assert cache.stats.evictions > 0


class TestFactory:
    def test_known_policies(self):
        for name in POLICY_NAMES:
            assert make_eviction_policy(name).name == name
        for name in HEAP_KEYS:  # rows of one table, served by one class
            assert type(make_eviction_policy(name)) is HeapEviction
        assert make_eviction_policy("flop_aware", 2.0).alpha == 2.0
        assert isinstance(make_eviction_policy("flop_aware"), FlopAwareEviction)
        assert isinstance(make_eviction_policy("lru_k"), LRUKEviction)
        assert isinstance(make_eviction_policy("random"), RandomEviction)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            make_eviction_policy("nope")


class TestCacheEviction:
    """Eviction behaviour through the full cache."""

    def _fill(self, cache, tokens, n_sequences=6, length=400):
        handles = []
        for i in range(n_sequences):
            seq = tokens(length, seed=1000 + i)
            s = cache.begin(seq, float(i))
            s.commit(np.concatenate([seq, tokens(50, seed=2000 + i)]), float(i) + 0.5)
            handles.append(seq)
        return handles

    def test_eviction_frees_to_capacity(self, hybrid, tokens):
        per_seq = node_state_bytes(hybrid, 450, True)
        cache = MarconiCache(hybrid, capacity_bytes=3 * per_seq, alpha=0.0)
        self._fill(cache, tokens)
        assert cache.used_bytes <= cache.capacity_bytes
        assert cache.stats.evictions > 0

    def test_accounting_invariant_after_evictions(self, hybrid, tokens):
        per_seq = node_state_bytes(hybrid, 450, True)
        cache = MarconiCache(hybrid, capacity_bytes=3 * per_seq, alpha=1.0)
        self._fill(cache, tokens, n_sequences=10)
        assert cache.used_bytes == cache.recompute_used_bytes()
        cache.tree.check_integrity()

    def test_lru_evicts_oldest_sequence(self, hybrid, tokens):
        per_seq = node_state_bytes(hybrid, 450, True)
        cache = MarconiCache(hybrid, capacity_bytes=4 * per_seq, alpha=0.0)
        seqs = self._fill(cache, tokens, n_sequences=5)
        # The first-admitted sequence should be gone; the last should hit.
        r_old = cache.begin(np.concatenate([seqs[0], tokens(5, seed=1)]), 10.0)
        assert r_old.hit_tokens == 0

    def test_multi_child_nodes_protected(self, hybrid, tokens):
        """Shared prefixes (nodes with >= 2 children) are never evicted
        while their subtrees remain."""
        shared = tokens(300, seed=5)
        cache = MarconiCache(hybrid, capacity_bytes=int(2e9), alpha=0.0)
        for i in range(3):
            seq = np.concatenate([shared, tokens(200, seed=600 + i)])
            s = cache.begin(seq, float(i))
            s.commit(np.concatenate([seq, tokens(40, seed=700 + i)]), float(i) + 0.5)
        branch = cache.tree.match(shared).deepest_node
        assert branch is not None and branch.n_children >= 2
        # Force heavy eviction pressure.
        big = tokens(20000, seed=999)
        s = cache.begin(big, 100.0)
        s.commit(np.concatenate([big, tokens(10, seed=998)]), 100.5)
        # The branch node may only disappear after ALL children are gone.
        survivors = [n for n in cache.tree.iter_nodes() if n.n_children >= 2]
        for node in survivors:
            assert node.n_children >= 2

    def test_interior_eviction_releases_ssm_keeps_kvs(self, hybrid, tokens):
        """Evicting a single-child node frees exactly the recurrent bytes."""
        cache = MarconiCache(hybrid, capacity_bytes=int(50e9), alpha=0.0)
        seq1 = tokens(200, seed=1)
        s = cache.begin(seq1, 0.0)
        full1 = np.concatenate([seq1, tokens(50, seed=2)])
        s.commit(full1, 0.5)
        seq2 = np.concatenate([full1, tokens(100, seed=3)])
        s = cache.begin(seq2, 1.0)
        s.commit(np.concatenate([seq2, tokens(50, seed=4)]), 1.5)
        interior = cache.tree.match(full1).deepest_node
        assert interior.n_children == 1 and interior.has_ssm_state
        used_before = cache.used_bytes
        tokens_before = cache.tree.total_edge_tokens
        victim = next(
            c for c in cache._collect_candidates() if c.node is interior
        )
        cache._apply_eviction(victim)
        assert used_before - cache.used_bytes == model_recurrent_bytes(hybrid)
        assert cache.tree.total_edge_tokens == tokens_before
        assert cache.used_bytes == cache.recompute_used_bytes()

    def test_hit_refreshes_only_accessed_node(self, hybrid, tokens):
        """Section 4.3 detail (2): ancestors' timestamps stay stale."""
        cache = MarconiCache(hybrid, capacity_bytes=int(50e9), alpha=0.0)
        seq1 = tokens(200, seed=11)
        s = cache.begin(seq1, 0.0)
        full1 = np.concatenate([seq1, tokens(50, seed=12)])
        s.commit(full1, 0.5)
        seq2 = np.concatenate([full1, tokens(80, seed=13)])
        s = cache.begin(seq2, 1.0)
        full2 = np.concatenate([seq2, tokens(50, seed=14)])
        s.commit(full2, 1.5)
        ancestor = cache.tree.match(full1).deepest_node
        stamp_before = ancestor.last_access
        round3 = np.concatenate([full2, tokens(30, seed=15)])
        s = cache.begin(round3, 50.0)
        assert s.hit_tokens == len(full2)
        assert ancestor.last_access == stamp_before
        s.commit(np.concatenate([round3, tokens(10, seed=16)]), 50.5)

    def test_oversized_request_rejected_gracefully(self, hybrid, tokens):
        """A sequence larger than the whole cache is served but not cached."""
        cache = MarconiCache(hybrid, capacity_bytes=int(1e8), alpha=0.0)
        huge = tokens(10_000, seed=21)
        s = cache.begin(huge, 0.0)
        assert s.hit_tokens == 0
        result = s.commit(np.concatenate([huge, tokens(10, seed=22)]), 0.5)
        assert result.rejected
        assert cache.used_bytes <= cache.capacity_bytes
        assert cache.used_bytes == cache.recompute_used_bytes()
