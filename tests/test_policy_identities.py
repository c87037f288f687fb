"""Identity tests between policies that must coincide by construction."""

import numpy as np
import pytest

from repro.core.cache import MarconiCache
from repro.baselines.sglang_plus import SGLangPlusCache
from repro.engine.server import simulate_trace
from repro.models.presets import hybrid_7b
from repro.workloads import generate_trace
from repro.workloads.sessions import WorkloadParams


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        "lmsys",
        WorkloadParams(n_sessions=40, session_rate=2.0, mean_think_s=3.0, seed=17)
    )


@pytest.fixture(scope="module")
def model():
    return hybrid_7b()


def run(model, cache, trace):
    return simulate_trace(model, cache, trace, policy_name="x")


class TestAlphaZeroIsLRU:
    def test_flop_aware_alpha0_equals_lru_under_contention(self, model, trace):
        """`S(n) = recency + 0 * efficiency` must reproduce LRU decisions
        exactly, including tie-breaks, over a full contended run."""
        capacity = int(3e9)
        lru = run(model, MarconiCache(model, capacity, eviction="lru"), trace)
        alpha0 = run(model, MarconiCache(model, capacity, alpha=0.0), trace)
        assert lru.token_hit_rate == alpha0.token_hit_rate
        assert [r.hit_tokens for r in lru.records] == [r.hit_tokens for r in alpha0.records]


class TestSGLangPlusIdentity:
    def test_sglang_plus_is_marconi_lru(self, model, trace):
        capacity = int(3e9)
        sglang = run(model, SGLangPlusCache(model, capacity), trace)
        marconi_lru = run(model, MarconiCache(model, capacity, eviction="lru"), trace)
        assert sglang.token_hit_rate == marconi_lru.token_hit_rate


class TestTunerWarmupIdentity:
    def test_untuned_marconi_tracks_lru_until_first_eviction(self, model, trace):
        """Before the first eviction, auto-tuned Marconi behaves exactly as
        LRU (alpha starts at 0) — verify on an uncontended run."""
        capacity = int(1e12)  # nothing evicts
        auto = MarconiCache(model, capacity, alpha=None)
        lru = MarconiCache(model, capacity, eviction="lru")
        a = run(model, auto, trace)
        b = run(model, lru, trace)
        assert a.token_hit_rate == b.token_hit_rate
        assert auto.alpha == 0.0  # never tuned

    def test_tuned_alpha_only_diverges_after_tuning(self, model, trace):
        capacity = int(3e9)
        auto = MarconiCache(model, capacity, alpha=None)
        run(model, auto, trace)
        if auto.tuner is not None and auto.tuner.is_tuned:
            assert auto.alpha in auto.tuner.config.alpha_grid


class TestPureTransformerEquivalence:
    def test_eviction_policy_irrelevant_without_contention(self, trace):
        from repro.models.presets import transformer_7b

        model = transformer_7b()
        capacity = int(1e12)
        a = run(model, MarconiCache(model, capacity, alpha=2.0), trace)
        b = run(model, MarconiCache(model, capacity, eviction="lru"), trace)
        assert a.token_hit_rate == b.token_hit_rate
        assert a.token_hit_rate > 0
