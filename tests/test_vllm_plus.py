"""Tests for the vLLM+ baseline (block-granular checkpointing, leaf-LRU)."""

import numpy as np
import pytest

from repro.baselines.vllm_plus import VLLMPlusCache
from repro.models.memory import block_entry_bytes, kv_bytes, model_recurrent_bytes


class TestBlockBytes:
    def test_hybrid_block_includes_checkpoint(self, hybrid):
        cache = VLLMPlusCache(hybrid, int(1e9), block_size=32)
        assert cache.block_bytes == block_entry_bytes(hybrid, 32)
        assert cache.block_bytes > kv_bytes(hybrid, 32)

    def test_transformer_block_is_kv_only(self, transformer):
        cache = VLLMPlusCache(transformer, int(1e9), block_size=32)
        assert cache.block_bytes == kv_bytes(transformer, 32)

    def test_rejects_bad_capacity(self, hybrid):
        with pytest.raises(ValueError):
            VLLMPlusCache(hybrid, 0)


class TestLookupAdmit:
    def _roundtrip(self, cache, tokens, n, seed):
        seq = tokens(n, seed=seed)
        s = cache.begin(seq, 0.0)
        s.commit(seq, 0.5)
        return seq

    def test_block_granular_hit(self, hybrid, tokens):
        cache = VLLMPlusCache(hybrid, int(100e9), block_size=32)
        seq = self._roundtrip(cache, tokens, 100, seed=1)
        probe = np.concatenate([seq, tokens(50, seed=2)])
        s = cache.begin(probe, 1.0)
        assert s.hit_tokens == 96  # 3 full blocks of the 100-token prefix

    def test_hit_capped_below_input_length(self, hybrid, tokens):
        """Even an exact block-aligned match must leave >= 1 token to prefill."""
        cache = VLLMPlusCache(hybrid, int(100e9), block_size=32)
        seq = self._roundtrip(cache, tokens, 128, seed=3)
        s = cache.begin(seq, 1.0)  # identical, block-aligned input
        assert s.hit_tokens == 96  # 4th block would cover the whole input

    def test_partial_trailing_block_not_cached(self, hybrid, tokens):
        cache = VLLMPlusCache(hybrid, int(100e9), block_size=32)
        self._roundtrip(cache, tokens, 40, seed=4)  # 1 full block + 8 spare
        assert cache.store.n_blocks == 1
        assert cache.used_bytes == cache.block_bytes

    def test_admission_dedupes_shared_blocks(self, hybrid, tokens):
        cache = VLLMPlusCache(hybrid, int(100e9), block_size=32)
        shared = tokens(64, seed=5)
        self._roundtrip(cache, tokens, 0, seed=0) if False else None
        a = np.concatenate([shared, tokens(32, seed=6)])
        b = np.concatenate([shared, tokens(32, seed=7)])
        for seq in (a, b):
            s = cache.begin(seq, 0.0)
            s.commit(seq, 0.5)
        # 2 shared + 1 unique each = 4 blocks, not 6.
        assert cache.store.n_blocks == 4

    def test_divergent_content_same_position_not_shared(self, hybrid, tokens):
        """Hash-chained keys: same-position blocks with different ancestry
        never collide."""
        cache = VLLMPlusCache(hybrid, int(100e9), block_size=32)
        a = tokens(64, seed=8)
        b = np.concatenate([tokens(32, seed=9), a[32:64]])  # same 2nd block tokens
        for seq in (a, b):
            s = cache.begin(seq, 0.0)
            s.commit(seq, 0.5)
        assert cache.store.n_blocks == 4

    def test_accounting_invariant(self, hybrid, tokens):
        cache = VLLMPlusCache(hybrid, int(2e9), block_size=32)
        for i in range(10):
            seq = tokens(200 + 30 * i, seed=100 + i)
            s = cache.begin(seq, float(i))
            s.commit(seq, float(i) + 0.5)
        cache.check_integrity()

    def test_handle_reuse_rejected(self, hybrid, tokens):
        cache = VLLMPlusCache(hybrid, int(1e9))
        seq = tokens(64, seed=10)
        s = cache.begin(seq, 0.0)
        s.commit(seq, 0.5)
        with pytest.raises(ValueError):
            s.commit(seq, 1.0)


class TestEviction:
    def test_lru_leaf_eviction_order(self, hybrid, tokens):
        cache = VLLMPlusCache(hybrid, 3 * block_entry_bytes(hybrid, 32), block_size=32)
        old = tokens(32, seed=11)
        fresh = tokens(32, seed=12)
        for t, seq in [(0.0, old), (1.0, fresh)]:
            s = cache.begin(seq, t)
            s.commit(seq, t + 0.1)
        # Force eviction of one block by admitting two more.
        extra = tokens(64, seed=13)
        s = cache.begin(extra, 2.0)
        s.commit(extra, 2.1)
        # The oldest block (old) should be gone; fresh should survive.
        assert cache.begin(np.concatenate([fresh, tokens(8, seed=14)]), 3.0).hit_tokens == 32
        assert cache.begin(np.concatenate([old, tokens(8, seed=15)]), 4.0).hit_tokens == 0

    def test_prefix_property_preserved_under_eviction(self, hybrid, tokens):
        """Eviction only removes leaves, so any matched chain stays rooted."""
        cache = VLLMPlusCache(hybrid, 10 * block_entry_bytes(hybrid, 32), block_size=32)
        rng = np.random.default_rng(0)
        for i in range(15):
            seq = tokens(int(rng.integers(32, 320)), seed=300 + i)
            s = cache.begin(seq, float(i))
            s.commit(seq, float(i) + 0.5)
        cache.check_integrity()
        for block in cache.store.iter_blocks():
            assert cache.store.has_block(block.parent_id)

    def test_thrash_counts_evictions(self, hybrid, tokens):
        cache = VLLMPlusCache(hybrid, 4 * block_entry_bytes(hybrid, 32), block_size=32)
        for i in range(8):
            seq = tokens(128, seed=400 + i)
            s = cache.begin(seq, float(i))
            s.commit(seq, float(i) + 0.5)
        assert cache.stats.evictions > 0
        cache.check_integrity()


class TestReuseStats:
    def test_fig3a_sparse_ssm_reuse(self, hybrid, tokens):
        """A chain hit reuses every block's KVs but only the last block's
        recurrent state — the Fig. 3a asymmetry."""
        cache = VLLMPlusCache(hybrid, int(100e9), block_size=32)
        seq = tokens(320, seed=16)  # 10 blocks
        s = cache.begin(seq, 0.0)
        s.commit(seq, 0.5)
        probe = np.concatenate([seq, tokens(32, seed=17)])
        s = cache.begin(probe, 1.0)
        assert s.hit_tokens == 320
        stats = cache.reuse_stats
        assert stats.blocks_kv_reused == 10
        assert stats.blocks_ssm_reused == 1
        assert stats.kv_reuse_rate > stats.ssm_reuse_rate

    def test_reuse_flags_are_sticky(self, hybrid, tokens):
        cache = VLLMPlusCache(hybrid, int(100e9), block_size=32)
        seq = tokens(64, seed=18)
        s = cache.begin(seq, 0.0)
        s.commit(seq, 0.5)
        for t in (1.0, 2.0, 3.0):
            cache.begin(np.concatenate([seq, tokens(16, seed=19)]), t).abort()
        assert cache.reuse_stats.blocks_kv_reused == 2  # counted once each
