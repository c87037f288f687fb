"""End-to-end behavioural tests for MarconiCache."""

import numpy as np
import pytest

from repro.baselines.vanilla import VanillaCache
from repro.baselines.vllm_plus import VLLMPlusCache
from repro.core.cache import MarconiCache
from repro.core.interfaces import LookupResult, RequestSession
from repro.models.flops import prefill_flops_table
from repro.models.memory import (
    kv_bytes_per_token,
    model_recurrent_bytes,
    node_state_bytes,
)
from repro.tiering import TieredMarconiCache


class TestBasics:
    def test_rejects_bad_capacity(self, hybrid):
        with pytest.raises(ValueError):
            MarconiCache(hybrid, capacity_bytes=0)

    def test_set_alpha_only_for_flop_aware(self, hybrid):
        cache = MarconiCache(hybrid, int(1e9), alpha=1.0)
        cache.set_alpha(0.25)
        assert cache.alpha == 0.25
        lru = MarconiCache(hybrid, int(1e9), eviction="lru")
        with pytest.raises(ValueError, match="no alpha"):
            lru.set_alpha(0.5)

    def test_eviction_node_visits_count_up(self, hybrid, tokens):
        cache = MarconiCache(hybrid, int(1e9), alpha=1.0)
        assert cache.eviction_node_visits == 0
        seq = tokens(100, seed=40)
        cache.begin(seq, 0.0).commit(np.concatenate([seq, tokens(10, seed=41)]), 0.5)
        assert cache.eviction_node_visits > 0

    def test_rejects_empty_lookup(self, hybrid):
        cache = MarconiCache(hybrid, int(1e9), alpha=1.0)
        with pytest.raises(ValueError):
            cache.begin(np.asarray([], dtype=np.int32), 0.0)

    def test_rejects_2d_tokens(self, hybrid):
        cache = MarconiCache(hybrid, int(1e9), alpha=1.0)
        with pytest.raises(ValueError, match="1-D"):
            cache.begin(np.zeros((2, 2), dtype=np.int32), 0.0)

    def test_accepts_python_lists(self, hybrid):
        cache = MarconiCache(hybrid, int(1e9), alpha=1.0)
        s = cache.begin([1, 2, 3], 0.0)
        assert isinstance(s, RequestSession)
        assert isinstance(s.result, LookupResult)
        s.commit([1, 2, 3, 4], 0.5)

    def test_handle_cannot_be_reused(self, hybrid, tokens):
        cache = MarconiCache(hybrid, int(1e9), alpha=1.0)
        seq = tokens(50, seed=1)
        s = cache.begin(seq, 0.0)
        full = np.concatenate([seq, tokens(10, seed=2)])
        s.commit(full, 0.5)
        with pytest.raises(ValueError, match="already admitted"):
            s.commit(full, 1.0)

    def test_admit_without_lookup_supported(self, hybrid, tokens):
        """A sequence nobody asked for first enters through a session of
        its own: begun and committed with the same tokens."""
        cache = MarconiCache(hybrid, int(1e9), alpha=1.0)
        seq = tokens(100, seed=3)
        cache.begin(seq, 0.0).commit(seq, 0.0)
        s = cache.begin(np.concatenate([seq, tokens(10, seed=4)]), 1.0)
        assert s.hit_tokens == len(seq)

    def test_reset_clears_everything(self, hybrid, tokens):
        cache = MarconiCache(hybrid, int(1e9), alpha=1.0)
        still_open = cache.begin(tokens(100, seed=5), 0.0)
        full = tokens(110, seed=5)
        cache.begin(full, 0.5).commit(full, 0.5)
        cache.reset()
        assert not still_open.is_open
        assert cache.used_bytes == 0
        assert cache.stats.lookups == 0
        assert cache.tree.n_nodes == 0


class TestAccounting:
    def test_lookup_charges_input_kvs(self, hybrid, tokens):
        cache = MarconiCache(hybrid, int(10e9), alpha=1.0)
        seq = tokens(500, seed=6)
        with cache.begin(seq, 0.0):  # charged while the request is in flight
            assert cache.used_bytes == 500 * kv_bytes_per_token(hybrid)

    def test_admit_charges_output_and_checkpoint(self, hybrid, tokens):
        cache = MarconiCache(hybrid, int(10e9), alpha=1.0)
        seq = tokens(500, seed=7)
        s = cache.begin(seq, 0.0)
        full = np.concatenate([seq, tokens(100, seed=8)])
        result = s.commit(full, 0.5)
        expected = 100 * kv_bytes_per_token(hybrid) + model_recurrent_bytes(hybrid)
        assert result.admitted_bytes == expected
        cache.check_integrity()

    def test_branch_checkpoint_charged_once(self, hybrid, tokens):
        cache = MarconiCache(hybrid, int(10e9), alpha=1.0)
        shared = tokens(300, seed=9)
        for i in range(2):
            seq = np.concatenate([shared, tokens(80, seed=20 + i)])
            s = cache.begin(seq, float(i))
            s.commit(np.concatenate([seq, tokens(30, seed=30 + i)]), float(i) + 0.5)
        cache.check_integrity()

    def test_free_bytes_and_utilization(self, hybrid, tokens):
        cache = MarconiCache(hybrid, int(1e9), alpha=1.0)
        assert cache.free_bytes == cache.capacity_bytes
        assert cache.utilization == 0.0
        with cache.begin(tokens(100, seed=10), 0.0):
            assert 0.0 < cache.utilization < 1.0
            assert cache.free_bytes == cache.capacity_bytes - cache.used_bytes


class TestCandidateEfficiency:
    """The eviction score's FLOP term: the prefill FLOPs of a node's whole
    prefix per byte its eviction frees."""

    def _leaves(self, hybrid, tokens):
        cache = MarconiCache(hybrid, int(1e12), alpha=1.0)
        for length, seed in ((20_000, 1), (2_000, 2)):
            seq = tokens(length, seed=seed)
            full = np.concatenate([seq, tokens(10, seed=seed + 10)])
            cache.begin(seq, 0.0).commit(full, 0.5)
        leaves = {node.seq_len: node for node in cache.tree.iter_nodes() if not node.children}
        assert sorted(leaves) == [2_010, 20_010]
        return cache, leaves

    def test_prefix_flops_per_freed_byte(self, hybrid, tokens):
        cache, leaves = self._leaves(hybrid, tokens)
        table = prefill_flops_table(hybrid)
        for node in leaves.values():
            freeable = cache._freeable_bytes(node)
            assert freeable > 0
            assert cache._candidate_efficiency(node, freeable) == table[node.seq_len] / freeable

    def test_zero_freeable_scores_zero(self, hybrid, tokens):
        cache, leaves = self._leaves(hybrid, tokens)
        for node in leaves.values():
            assert cache._candidate_efficiency(node, 0) == 0.0

    def test_deep_nodes_dominate(self, hybrid, tokens):
        """The short-for-long trade (Fig. 10a): per byte freed, a deep node
        outranks a shallow one."""
        cache, leaves = self._leaves(hybrid, tokens)
        freed = 10_000_000
        deep = cache._candidate_efficiency(leaves[20_010], freed)
        shallow = cache._candidate_efficiency(leaves[2_010], freed)
        assert deep >= 5 * shallow


class TestStats:
    def test_token_hit_rate_accumulates(self, hybrid, tokens):
        cache = MarconiCache(hybrid, int(10e9), alpha=1.0)
        seq = tokens(100, seed=11)
        s = cache.begin(seq, 0.0)
        full = np.concatenate([seq, tokens(100, seed=12)])
        s.commit(full, 0.5)
        follow = np.concatenate([full, tokens(100, seed=13)])
        cache.begin(follow, 1.0).abort()  # the lookup counts, served or not
        # 0 hits of 100, then 200 hits of 300 => 200/400.
        assert cache.stats.token_hit_rate == pytest.approx(200 / 400)
        assert cache.stats.hits == 1
        assert cache.stats.lookups == 2

    def test_flops_saved_tracked(self, hybrid, tokens):
        cache = MarconiCache(hybrid, int(10e9), alpha=1.0)
        seq = tokens(100, seed=14)
        s = cache.begin(seq, 0.0)
        full = np.concatenate([seq, tokens(10, seed=15)])
        s.commit(full, 0.5)
        assert cache.stats.flops_saved == 0.0
        cache.begin(np.concatenate([full, tokens(120, seed=16)]), 1.0).abort()
        assert cache.stats.flops_saved > 0

    def test_snapshot_keys(self, hybrid, tokens):
        cache = MarconiCache(hybrid, int(10e9), alpha=1.0)
        cache.begin(tokens(10, seed=17), 0.0).abort()
        snap = cache.stats.snapshot()
        for key in ("lookups", "token_hit_rate", "evictions", "admitted_bytes"):
            assert key in snap


class TestPinningUnderPressure:
    def test_inflight_hit_node_survives_pressure(self, hybrid, tokens):
        """States being used by an in-flight prefill must not be evicted
        between lookup and admit."""
        per_seq = node_state_bytes(hybrid, 220, True)
        cache = MarconiCache(hybrid, capacity_bytes=4 * per_seq, alpha=0.0)
        base = tokens(200, seed=18)
        s = cache.begin(base, 0.0)
        full = np.concatenate([base, tokens(20, seed=19)])
        s.commit(full, 0.5)
        # Open a request that hits `full`, keep it in flight.
        follow = np.concatenate([full, tokens(50, seed=20)])
        inflight = cache.begin(follow, 1.0)
        assert inflight.hit_tokens == len(full)
        # Hammer the cache with other sequences to force evictions.
        for i in range(8):
            other = tokens(220, seed=100 + i)
            s2 = cache.begin(other, 2.0 + i)
            s2.commit(np.concatenate([other, tokens(20, seed=200 + i)]), 2.5 + i)
        # The in-flight path must still be intact.
        node = cache.tree.match(follow).deepest_node
        assert node is not None and node.is_pinned
        inflight.commit(np.concatenate([follow, tokens(10, seed=21)]), 20.0)
        cache.check_integrity()

    def test_partial_prefix_kept_when_input_exceeds_capacity(self, hybrid, tokens):
        """An input larger than the cache keeps only its longest affordable
        KV prefix (mirroring block caches admitting prefix blocks)."""
        cache = MarconiCache(hybrid, capacity_bytes=int(5e7), alpha=0.0)
        seq = tokens(2000, seed=22)  # 2000 * 64KB >> 50MB
        s = cache.begin(seq, 0.0)
        assert s.hit_tokens == 0
        assert cache.used_bytes > 0
        cache.check_integrity()
        node = next(iter(cache.tree.iter_nodes()))
        assert 0 < node.kv_tokens < 2000
        np.testing.assert_array_equal(node.edge_tokens, seq[: node.kv_tokens])
        s.commit(np.concatenate([seq, tokens(10, seed=23)]), 0.5)
        cache.check_integrity()

    def test_full_rollback_when_nothing_fits(self, hybrid, tokens):
        """With capacity below one token's KVs, the path is rolled back."""
        cache = MarconiCache(hybrid, capacity_bytes=1024, alpha=0.0)
        seq = tokens(100, seed=24)
        s = cache.begin(seq, 0.0)
        assert cache.used_bytes == 0
        assert cache.stats.rejected_admissions >= 1
        result = s.commit(np.concatenate([seq, tokens(10, seed=25)]), 0.5)
        assert result.rejected
        assert cache.tree.n_nodes == 0
        cache.check_integrity()


class TestStorePayloads:
    def test_leaf_payload_roundtrip(self, hybrid, tokens):
        cache = MarconiCache(hybrid, int(10e9), alpha=1.0, store_states=True)
        seq = tokens(100, seed=24)
        s = cache.begin(seq, 0.0)
        full = np.concatenate([seq, tokens(10, seed=25)])
        s.commit(full, 0.5, state_payload={"state": 42})
        s2 = cache.begin(np.concatenate([full, tokens(5, seed=26)]), 1.0)
        assert s2.state_payload == {"state": 42}

    def test_attach_branch_state(self, hybrid, tokens):
        cache = MarconiCache(hybrid, int(10e9), alpha=1.0, store_states=True)
        shared = tokens(300, seed=27)
        first = np.concatenate([shared, tokens(50, seed=28)])
        s = cache.begin(first, 0.0)
        s.commit(np.concatenate([first, tokens(10, seed=29)]), 0.5)
        second = np.concatenate([shared, tokens(50, seed=30)])
        s2 = cache.begin(second, 1.0)
        assert s2.checkpoint_positions == [300]
        s2.attach_branch_state(300, {"branch": True})
        s2.commit(np.concatenate([second, tokens(10, seed=31)]), 1.5)
        third = np.concatenate([shared, tokens(50, seed=32)])
        s3 = cache.begin(third, 2.0)
        assert s3.hit_tokens == 300
        assert s3.state_payload == {"branch": True}

    def test_attach_at_wrong_position_raises(self, hybrid, tokens):
        cache = MarconiCache(hybrid, int(10e9), alpha=1.0, store_states=True)
        s = cache.begin(tokens(50, seed=33), 0.0)
        with pytest.raises(ValueError, match="branch checkpoint"):
            s.attach_branch_state(10, {})


CACHES = {
    "marconi": lambda model, cap: MarconiCache(model, cap, alpha=1.0),
    "tiered": lambda model, cap: TieredMarconiCache(model, cap, cap, alpha=1.0),
    "vllm+": VLLMPlusCache,
    "vanilla": VanillaCache,
}


def _nudge(obj, attr, by=-1):
    setattr(obj, attr, getattr(obj, attr) + by)


# One broken clause per case: (cache, the break, the message it raises).
BREAKS = {
    "byte count": ("marconi", lambda c: _nudge(c, "_used"), "out of step"),
    "pin, no session": ("marconi", lambda c: c.tree.pin_path(next(c.tree.iter_nodes())), "pin"),
    "over capacity": ("marconi", lambda c: setattr(c, "_capacity", c.used_bytes - 1), "outside"),
    "second-tier bytes": ("tiered", lambda c: _nudge(c.secondary, "_used"), "entries"),
    "block children": ("vllm+", lambda c: _nudge(next(c.store.iter_blocks()), "n_children"), None),
}


class TestCheckIntegrity:
    """Every cache passes after a contended run; each clause catches its break."""

    @staticmethod
    def _contended_run(kind, model, tokens):
        cache = CACHES[kind](model, 3 * node_state_bytes(model, 300, True))
        stem = tokens(200, seed=1)
        for i in range(24):
            seq = np.concatenate([stem[: 40 * (i % 5)], tokens(120, seed=100 + i)])
            s = cache.begin(seq, float(i))
            s.commit(np.concatenate([seq, tokens(20, seed=200 + i)]), i + 0.5)
        assert cache.stats.evictions > 0 or kind == "vanilla"
        return cache

    @pytest.mark.parametrize("kind", CACHES)
    def test_holds_after_a_contended_run(self, hybrid, tokens, kind):
        self._contended_run(kind, hybrid, tokens).check_integrity()

    @pytest.mark.parametrize("clause", BREAKS)
    def test_catches_a_break(self, hybrid, tokens, clause):
        kind, corrupt, message = BREAKS[clause]
        cache = self._contended_run(kind, hybrid, tokens)
        cache.check_integrity()
        corrupt(cache)
        with pytest.raises(AssertionError, match=message):
            cache.check_integrity()
