"""Tests for the two-tier cache (secondary store, demotion, promotion)."""

import numpy as np
import pytest

from repro.core.cache import MarconiCache
from repro.core.tokens import TokenSeq
from repro.engine.latency import LatencyModel
from repro.engine.server import simulate_trace
from repro.models.memory import kv_bytes, model_recurrent_bytes, node_state_bytes
from repro.tiering import SecondaryStore, TieredMarconiCache
from repro.workloads import generate_trace


def toks(n, seed):
    return np.random.default_rng(seed).integers(0, 32000, size=n, dtype=np.int32)


class TestSecondaryStore:
    def test_insert_and_exact_membership(self):
        store = SecondaryStore(10_000)
        assert store.insert(toks(10, 1), 100, now=0.0)
        assert toks(10, 1) in store
        assert toks(10, 2) not in store
        assert store.used_bytes == 100
        assert store.n_entries == 1

    def test_longest_match_picks_deepest(self):
        store = SecondaryStore(10_000)
        seq = toks(50, 3)
        store.insert(seq[:20], 100, now=0.0)
        store.insert(seq[:40], 100, now=0.0)
        hit = store.longest_match(seq, max_len=49, now=1.0)
        assert hit is not None and hit.seq_len == 40
        assert hit.hits == 1 and hit.last_access == 1.0

    def test_longest_match_respects_max_len(self):
        store = SecondaryStore(10_000)
        seq = toks(50, 4)
        store.insert(seq[:40], 100, now=0.0)
        assert store.longest_match(seq, max_len=39, now=1.0) is None

    def test_capacity_evicts_lru(self):
        store = SecondaryStore(250)
        store.insert(toks(5, 1), 100, now=0.0)
        store.insert(toks(5, 2), 100, now=1.0)
        store.insert(toks(5, 3), 100, now=2.0)  # evicts the oldest
        assert toks(5, 1) not in store
        assert toks(5, 2) in store and toks(5, 3) in store
        assert store.stats.evictions == 1

    def test_flop_aware_policy_keeps_efficient_entries(self):
        store = SecondaryStore(250, policy="flop_aware", alpha=10.0)
        store.insert(toks(5, 1), 100, now=0.0, flop_efficiency=1000.0)
        store.insert(toks(5, 2), 100, now=1.0, flop_efficiency=1.0)
        store.insert(toks(5, 3), 100, now=2.0, flop_efficiency=500.0)
        # The old-but-efficient entry survives; the fresh-but-cheap one goes.
        assert toks(5, 1) in store
        assert toks(5, 2) not in store

    def test_oversized_entry_rejected(self):
        store = SecondaryStore(100)
        assert not store.insert(toks(5, 1), 500, now=0.0)
        assert store.stats.rejected == 1
        assert store.used_bytes == 0

    def test_reinsert_refreshes(self):
        store = SecondaryStore(1_000)
        store.insert(toks(5, 1), 100, now=0.0)
        store.insert(toks(5, 1), 300, now=5.0)
        assert store.n_entries == 1
        assert store.used_bytes == 300

    def test_remove_and_clear(self):
        store = SecondaryStore(1_000)
        store.insert(toks(5, 1), 100, now=0.0)
        entry = store.remove(toks(5, 1))
        assert entry is not None and store.used_bytes == 0
        assert store.remove(toks(5, 1)) is None
        store.insert(toks(5, 2), 100, now=0.0)
        store.clear()
        assert store.n_entries == 0 and store.used_bytes == 0

    def test_two_entries_of_one_length_sharing_a_long_prefix(self):
        store = SecondaryStore(capacity_bytes=100)
        stem = list(range(50))
        store.insert(stem + [1], 10, now=0.0)
        store.insert(stem + [2], 10, now=1.0)
        assert store.longest_match(stem + [2, 9], 60, 2.0).tokens[-1] == 2
        assert store.longest_match(stem + [1, 9], 60, 2.0).tokens[-1] == 1
        assert store.longest_match(stem + [3, 9], 60, 2.0) is None
        assert store.longest_match(stem + [2, 9], 50, 2.0) is None  # capped below both
        assert stem + [2] in store and stem + [3] not in store
        assert store.remove(stem + [1]).tokens[-1] == 1 and store.n_entries == 1

    def test_a_query_shorter_than_every_entry(self):
        store = SecondaryStore(capacity_bytes=100)
        store.insert(list(range(20)), 10, now=0.0)
        store.insert(list(range(30)), 10, now=0.0)
        assert store.longest_match(list(range(10)), 10, 1.0) is None
        # ... also when the handle's backing bytes do hold an entry's tokens.
        short = TokenSeq.of(list(range(40))).prefix(10)
        assert store.longest_match(short, 10, 1.0) is None
        assert short not in store and store.remove(short) is None
        assert store.longest_match(TokenSeq.of(list(range(40))).prefix(25), 24, 1.0).seq_len == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            SecondaryStore(-1)
        with pytest.raises(ValueError):
            SecondaryStore(10, policy="fifo")
        store = SecondaryStore(10)
        with pytest.raises(ValueError):
            store.insert(np.empty(0, dtype=np.int32), 5, now=0.0)
        with pytest.raises(ValueError):
            store.insert(toks(3, 1), 0, now=0.0)


def _run_session(cache, seq, extra_out, now):
    """One request: begin with the input, commit input + output."""
    s = cache.begin(seq, now)
    full = np.concatenate([seq, extra_out])
    s.commit(full, now + 0.5)
    return s, full


class TestTieredCache:
    def _make(self, hybrid, n_primary_seqs=3, secondary_gb=64, **kwargs):
        per_seq = node_state_bytes(hybrid, 450, True)
        return TieredMarconiCache(
            hybrid,
            capacity_bytes=n_primary_seqs * per_seq,
            secondary_bytes=int(secondary_gb * 1e9),
            alpha=0.0,
            **kwargs,
        )

    def test_eviction_demotes_checkpoints(self, hybrid):
        cache = self._make(hybrid)
        for i in range(6):
            _run_session(cache, toks(400, 100 + i), toks(50, 200 + i), float(i))
        assert cache.stats.extra.get("demotions", 0) > 0
        assert cache.secondary.n_entries > 0
        cache.check_integrity()

    def test_promotion_serves_demoted_prefix(self, hybrid):
        cache = self._make(hybrid)
        first = toks(400, 1)
        _, full_first = _run_session(cache, first, toks(50, 2), 0.0)
        # Push the first sequence out of the primary tier.
        for i in range(5):
            _run_session(cache, toks(400, 300 + i), toks(50, 400 + i), 1.0 + i)
        assert full_first in cache.secondary
        # Revisiting the conversation must hit via promotion.
        followup = np.concatenate([full_first, toks(60, 5)])
        s = cache.begin(followup, 50.0)
        assert s.hit_tokens == len(full_first)
        assert s.reused_secondary_bytes > 0
        assert cache.stats.extra.get("promotions", 0) == 1
        assert full_first not in cache.secondary  # moved back up
        s.commit(np.concatenate([followup, toks(10, 6)]), 50.5)

    def test_second_hit_is_primary(self, hybrid):
        cache = self._make(hybrid)
        first = toks(400, 1)
        _, full_first = _run_session(cache, first, toks(50, 2), 0.0)
        for i in range(5):
            _run_session(cache, toks(400, 500 + i), toks(50, 600 + i), 1.0 + i)
        followup = np.concatenate([full_first, toks(60, 7)])
        s1 = cache.begin(followup, 50.0)
        s1.commit(np.concatenate([followup, toks(10, 8)]), 50.5)
        s2 = cache.begin(np.concatenate([followup, toks(10, 8), toks(5, 9)]), 51.0)
        assert s2.hit_tokens > 0
        assert s2.reused_secondary_bytes == 0  # now served from the tree
        s2.commit(
            np.concatenate([followup, toks(10, 8), toks(5, 9), toks(5, 10)]),
            51.5,
        )

    def test_zero_secondary_matches_single_tier(self, hybrid):
        trace = generate_trace("lmsys", n_sessions=15, seed=11)
        per_seq = node_state_bytes(hybrid, 2000, True)
        single = MarconiCache(hybrid, 5 * per_seq, alpha=1.0)
        tiered = TieredMarconiCache(hybrid, 5 * per_seq, 0, alpha=1.0)
        for now, _, _, inp, full in trace.iter_requests_nominal():
            rs = single.begin(inp, now)
            rs.commit(full, now)
            rt = tiered.begin(inp, now)
            rt.commit(full, now)
        assert tiered.stats.token_hit_rate == pytest.approx(single.stats.token_hit_rate)
        assert tiered.secondary.n_entries == 0

    def test_second_tier_improves_hit_rate(self, hybrid):
        trace = generate_trace("lmsys", n_sessions=20, seed=13)
        per_seq = node_state_bytes(hybrid, 2000, True)
        single = MarconiCache(hybrid, 4 * per_seq, alpha=1.0)
        tiered = TieredMarconiCache(hybrid, 4 * per_seq, int(200e9), alpha=1.0)
        for now, _, _, inp, full in trace.iter_requests_nominal():
            rs = single.begin(inp, now)
            rs.commit(full, now)
            rt = tiered.begin(inp, now)
            rt.commit(full, now)
        assert tiered.stats.token_hit_rate >= single.stats.token_hit_rate
        assert tiered.stats.extra.get("secondary_hits", 0) > 0

    def test_accounting_invariants_under_churn(self, hybrid):
        cache = self._make(hybrid, n_primary_seqs=2, secondary_gb=2)
        for i in range(25):
            seq = toks(300 + (i * 37) % 400, 1000 + i % 7)
            _run_session(cache, seq, toks(40, 2000 + i), float(i))
        cache.check_integrity()

    def test_failed_promotion_keeps_tree_consistent(self, hybrid):
        # Secondary holds an entry far larger than the whole primary tier.
        rec = model_recurrent_bytes(hybrid)
        cache = TieredMarconiCache(hybrid, rec // 2, int(64e9), alpha=0.0)
        seq = toks(4000, 21)
        nbytes = kv_bytes(hybrid, len(seq)) + rec
        cache.secondary.insert(seq, nbytes, now=0.0)
        s = cache.begin(np.concatenate([seq, toks(10, 22)]), 1.0)
        assert s.hit_tokens == 0
        assert s.reused_secondary_bytes == 0
        assert cache.stats.extra.get("promotions_failed", 0) == 1
        cache.check_integrity()
        s.commit(np.concatenate([seq, toks(10, 22), toks(5, 23)]), 1.5)

    def test_failed_promotion_undoes_edge_split(self, hybrid):
        """A failed promotion whose tree insert split an edge must merge
        the split back (no stray zero-state intermediate nodes)."""
        rec = model_recurrent_bytes(hybrid)
        cache = TieredMarconiCache(hybrid, rec // 2, int(64e9), alpha=0.0)
        seq = toks(4000, 61)
        # Seed the tree with the full sequence as one leaf edge; don't let
        # the admit be charged (capacity is tiny), so force-insert directly.
        cache.tree.insert(np.concatenate([seq, toks(100, 62)]), 0.0)
        nodes_before = cache.tree.n_nodes
        # The secondary holds a checkpoint at a prefix *inside* that edge.
        cache.secondary.insert(seq, kv_bytes(hybrid, len(seq)) + rec, now=0.0)
        s = cache.begin(np.concatenate([seq, toks(10, 63)]), 1.0)
        assert s.hit_tokens == 0
        assert cache.stats.extra.get("promotions_failed", 0) == 1
        cache.tree.check_integrity()
        s.commit(np.concatenate([seq, toks(10, 63), [1]]).astype(np.int32), 1.5)
        cache.tree.check_integrity()

    def test_reset_clears_both_tiers(self, hybrid):
        cache = self._make(hybrid)
        for i in range(6):
            _run_session(cache, toks(400, 700 + i), toks(50, 800 + i), float(i))
        cache.reset()
        assert cache.used_bytes == 0
        assert cache.secondary.n_entries == 0


class TestLatencyIntegration:
    def test_secondary_bytes_priced_slower(self, hybrid):
        latency = LatencyModel()
        fast = latency.prefill_seconds(hybrid, 1000, 500, reused_bytes=int(1e9))
        slow = latency.prefill_seconds(
            hybrid, 1000, 500, reused_bytes=int(1e9), secondary_bytes=int(1e9)
        )
        assert slow > fast

    def test_secondary_bytes_validated(self, hybrid):
        with pytest.raises(ValueError):
            LatencyModel().prefill_seconds(
                hybrid, 100, 50, reused_bytes=100, secondary_bytes=200
            )

    def test_engine_runs_tiered_cache(self, hybrid):
        trace = generate_trace("lmsys", n_sessions=8, seed=17)
        per_seq = node_state_bytes(hybrid, 2000, True)
        cache = TieredMarconiCache(hybrid, 3 * per_seq, int(100e9), alpha=1.0)
        result = simulate_trace(hybrid, cache, trace, policy_name="tiered")
        assert result.n_requests == trace.n_requests
        assert all(r.ttft > 0 for r in result.records)
