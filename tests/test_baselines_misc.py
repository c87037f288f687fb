"""Tests for vanilla, SGLang+, the oracle, and the policy registry."""

import numpy as np
import pytest

from repro.baselines.oracle import tune_static_alpha
from repro.baselines.registry import POLICY_NAMES, make_cache
from repro.baselines.sglang_plus import SGLangPlusCache
from repro.baselines.vanilla import VanillaCache
from repro.baselines.vllm_plus import VLLMPlusCache
from repro.core.cache import MarconiCache
from repro.core.eviction import FlopAwareEviction
from repro.core.interfaces import CacheProtocol, replay_log
from repro.workloads import generate_trace


class TestVanilla:
    def test_always_misses(self, hybrid, tokens):
        cache = VanillaCache(hybrid)
        for i in range(3):
            seq = tokens(100, seed=i)
            s = cache.begin(seq, float(i))
            assert s.hit_tokens == 0
            s.commit(seq, float(i) + 0.5)
        assert cache.stats.token_hit_rate == 0.0
        assert cache.used_bytes == 0

    def test_reset(self, hybrid, tokens):
        cache = VanillaCache(hybrid)
        still_open = cache.begin(tokens(10, seed=1), 0.0)
        cache.reset()
        assert cache.stats.lookups == 0
        assert not still_open.is_open


class TestSGLangPlus:
    def test_is_marconi_with_lru(self, hybrid):
        cache = SGLangPlusCache(hybrid, int(1e9))
        assert isinstance(cache, MarconiCache)
        assert cache.policy.name == "lru"
        assert cache.tuner is None

    def test_same_admission_as_marconi(self, hybrid, tokens):
        """With ample capacity the two systems make identical admission
        decisions — only eviction differs."""
        sglang = SGLangPlusCache(hybrid, int(100e9))
        marconi = MarconiCache(hybrid, int(100e9), alpha=1.0)
        shared = tokens(200, seed=1)
        for i in range(3):
            seq = np.concatenate([shared, tokens(50, seed=10 + i)])
            full = np.concatenate([seq, tokens(20, seed=20 + i)])
            for cache in (sglang, marconi):
                cache.begin(seq, float(i)).commit(full, float(i) + 0.5)
        assert sglang.stats.hit_tokens == marconi.stats.hit_tokens
        assert sglang.used_bytes == marconi.used_bytes
        assert sglang.tree.n_nodes == marconi.tree.n_nodes


class TestOracle:
    def _requests(self, tokens, n=12):
        requests = []
        for i in range(n):
            seq = tokens(150, seed=i % 4)  # heavy reuse across 4 sessions
            full = np.concatenate([seq, tokens(30, seed=100 + i)])
            requests.append((float(i), seq, full))
        return requests

    def test_replay_log_returns_each_requests_hits(self, hybrid):
        requests = list(generate_trace("lmsys", n_sessions=5, seed=1).iter_requests_nominal())
        cache = MarconiCache(hybrid, int(10e9), alpha=0.0)
        hits = replay_log(cache, requests)
        assert len(hits) == cache.stats.lookups == len(requests)
        assert sum(hits) == cache.stats.hit_tokens > 0
        # The same log as (now, input, full), the tuner's window shape.
        short = MarconiCache(hybrid, int(10e9), alpha=0.0)
        assert replay_log(short, [(t, i, f) for t, _, _, i, f in requests]) == hits
        assert short.stats == cache.stats

    def test_tune_finds_best_alpha(self, hybrid, tokens):
        result = tune_static_alpha(
            hybrid, int(1e9), self._requests(tokens), alpha_grid=(0.0, 1.0)
        )
        assert result.best_alpha in (0.0, 1.0)
        assert result.best_hit_rate == max(result.hit_rates.values())

    def test_tie_prefers_smaller_alpha(self, hybrid, tokens):
        # With infinite capacity, all alphas tie; 0.0 must win.
        result = tune_static_alpha(
            hybrid, int(1e12), self._requests(tokens), alpha_grid=(0.0, 2.0, 4.0)
        )
        assert result.best_alpha == 0.0

    def test_empty_inputs_rejected(self, hybrid):
        with pytest.raises(ValueError):
            tune_static_alpha(hybrid, int(1e9), [])


class TestRegistry:
    def test_all_names_construct(self, hybrid):
        for name in POLICY_NAMES:
            cache = make_cache(name, hybrid, int(1e9))
            assert isinstance(cache, CacheProtocol)

    def test_types(self, hybrid):
        assert isinstance(make_cache("vanilla", hybrid, 0), VanillaCache)
        assert isinstance(make_cache("vllm+", hybrid, int(1e9)), VLLMPlusCache)
        assert isinstance(make_cache("sglang+", hybrid, int(1e9)), SGLangPlusCache)
        marconi = make_cache("marconi", hybrid, int(1e9))
        assert isinstance(marconi, MarconiCache) and marconi.tuner is not None
        fixed = make_cache("marconi-fixed", hybrid, int(1e9), alpha=2.0)
        assert isinstance(fixed.policy, FlopAwareEviction) and fixed.alpha == 2.0
        gdsf = make_cache("gdsf", hybrid, int(1e9))
        assert gdsf.policy.name == "gdsf"

    def test_block_size_forwarded(self, hybrid):
        cache = make_cache("vllm+", hybrid, int(1e9), block_size=64)
        assert cache.block_size == 64

    def test_unknown_policy(self, hybrid):
        with pytest.raises(KeyError):
            make_cache("nope", hybrid, int(1e9))
