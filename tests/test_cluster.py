"""Tests for cluster routing policies and the multi-replica simulator."""

import numpy as np
import pytest

from repro.cluster import (
    LeastLoadedRouter,
    PrefixAffinityRouter,
    RoundRobinRouter,
    SessionAffinityRouter,
    make_router,
    probe_hit_tokens,
    simulate_cluster,
)
from repro.cluster.router import ROUTER_NAMES
from repro.core.cache import MarconiCache
from repro.metrics.fairness import coefficient_of_variation, jain_fairness
from repro.models.memory import node_state_bytes
from repro.workloads.lmsys import generate_lmsys_trace


def toks(n, seed):
    return np.random.default_rng(seed).integers(0, 32000, size=n, dtype=np.int32)


class TestFairnessMetrics:
    def test_jain_even_loads(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_jain_single_hot_replica(self):
        assert jain_fairness([9.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    def test_jain_all_zero_is_fair(self):
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_jain_validation(self):
        with pytest.raises(ValueError):
            jain_fairness([])
        with pytest.raises(ValueError):
            jain_fairness([-1.0])

    def test_cv(self):
        assert coefficient_of_variation([4.0, 4.0]) == 0.0
        assert coefficient_of_variation([0.0, 0.0]) == 0.0
        assert coefficient_of_variation([0.0, 8.0]) == pytest.approx(1.0)


class TestProbe:
    def test_probe_matches_real_hybrid_hit(self, hybrid):
        cache = MarconiCache(hybrid, int(1e12), alpha=0.0)
        seq = toks(300, 1)
        s = cache.begin(seq, 0.0)
        full = np.concatenate([seq, toks(40, 2)])
        s.commit(full, 0.5)
        query = np.concatenate([full, toks(20, 3)])
        probed = probe_hit_tokens(cache, query)
        real = cache.begin(query, 1.0)
        assert probed == real.hit_tokens == len(full)
        real.commit(np.concatenate([query, toks(5, 4)]), 1.5)

    def test_probe_does_not_mutate(self, hybrid):
        cache = MarconiCache(hybrid, int(1e12), alpha=0.0)
        seq = toks(100, 5)
        s = cache.begin(seq, 0.0)
        s.commit(np.concatenate([seq, toks(10, 6)]), 0.5)
        nodes_before = cache.tree.n_nodes
        used_before = cache.used_bytes
        probe_hit_tokens(cache, np.concatenate([seq, toks(50, 7)]))
        assert cache.tree.n_nodes == nodes_before
        assert cache.used_bytes == used_before

    def test_probe_without_tree_is_zero(self):
        class Opaque:
            pass

        assert probe_hit_tokens(Opaque(), toks(5, 1)) == 0

    def test_probe_custom_method_wins(self):
        class WithProbe:
            def probe(self, tokens):
                return 7

        assert probe_hit_tokens(WithProbe(), toks(5, 1)) == 7

    def test_probe_vllm_plus_block_cache(self, hybrid):
        from repro.baselines.vllm_plus import VLLMPlusCache

        cache = VLLMPlusCache(hybrid, int(1e13), block_size=32)
        seq = toks(100, 31)
        s = cache.begin(seq, 0.0)
        s.commit(np.concatenate([seq, toks(30, 32)]), 0.5)
        query = np.concatenate([seq, toks(10, 33)])
        reuse_before = cache.reuse_stats.blocks_kv_reused
        probed = probe_hit_tokens(cache, query)
        assert probed == (len(seq) // 32) * 32
        # The probe must not perturb reuse counters.
        assert cache.reuse_stats.blocks_kv_reused == reuse_before


class TestRouters:
    def _fake_caches(self, n):
        return [object() for _ in range(n)]

    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        caches = self._fake_caches(3)
        picks = [router.route(toks(3, i), i, caches, [0, 0, 0], 0.0) for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]
        router.reset()
        assert router.route(toks(3, 9), 9, caches, [0, 0, 0], 0.0) == 0

    def test_least_loaded_picks_minimum(self):
        router = LeastLoadedRouter()
        assert router.route(toks(3, 1), 1, self._fake_caches(3), [2, 0, 1], 0.0) == 1

    def test_session_affinity_is_sticky(self):
        router = SessionAffinityRouter()
        caches = self._fake_caches(4)
        a = [router.route(toks(3, i), 42, caches, [0] * 4, 0.0) for i in range(5)]
        assert len(set(a)) == 1

    def test_session_affinity_spreads_sessions(self):
        router = SessionAffinityRouter()
        caches = self._fake_caches(4)
        picks = {router.route(toks(3, 1), sid, caches, [0] * 4, 0.0) for sid in range(64)}
        assert len(picks) >= 3

    def test_prefix_affinity_chases_cached_prefix(self, hybrid):
        caches = [MarconiCache(hybrid, int(1e12), alpha=0.0) for _ in range(2)]
        seq = toks(300, 11)
        s = caches[1].begin(seq, 0.0)
        full = np.concatenate([seq, toks(30, 12)])
        s.commit(full, 0.5)
        router = PrefixAffinityRouter()
        query = np.concatenate([full, toks(10, 13)])
        assert router.route(query, 0, caches, [0, 0], 1.0) == 1

    def test_prefix_affinity_spills_when_overloaded(self, hybrid):
        caches = [MarconiCache(hybrid, int(1e12), alpha=0.0) for _ in range(2)]
        seq = toks(300, 14)
        s = caches[1].begin(seq, 0.0)
        full = np.concatenate([seq, toks(30, 15)])
        s.commit(full, 0.5)
        router = PrefixAffinityRouter(max_imbalance=2)
        query = np.concatenate([full, toks(10, 16)])
        assert router.route(query, 0, caches, [0, 10], 1.0) == 0

    def test_prefix_affinity_cold_start_is_least_loaded(self, hybrid):
        caches = [MarconiCache(hybrid, int(1e12), alpha=0.0) for _ in range(3)]
        router = PrefixAffinityRouter()
        assert router.route(toks(50, 17), 0, caches, [3, 1, 2], 0.0) == 1

    def test_prefix_affinity_validation(self):
        with pytest.raises(ValueError):
            PrefixAffinityRouter(max_imbalance=-1)

    def test_factory(self):
        for name in ROUTER_NAMES:
            assert make_router(name).name == name
        with pytest.raises(KeyError):
            make_router("nope")


class TestClusterSimulator:
    def _caches(self, hybrid, n, seqs=4):
        per_seq = node_state_bytes(hybrid, 2000, True)
        return [MarconiCache(hybrid, seqs * per_seq, alpha=1.0) for _ in range(n)]

    def test_all_requests_served_once(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=12, seed=21)
        result = simulate_cluster(
            hybrid, self._caches(hybrid, 3), RoundRobinRouter(), trace
        )
        assert result.n_requests == trace.n_requests
        assert sum(result.routed_counts) == trace.n_requests

    def test_single_replica_matches_engine(self, hybrid):
        """A 1-replica cluster under any router equals the single simulator."""
        from repro.engine.server import simulate_trace

        trace = generate_lmsys_trace(n_sessions=8, seed=22)
        per_seq = node_state_bytes(hybrid, 2000, True)
        single = simulate_trace(
            hybrid, MarconiCache(hybrid, 4 * per_seq, alpha=1.0), trace
        )
        cluster = simulate_cluster(
            hybrid,
            [MarconiCache(hybrid, 4 * per_seq, alpha=1.0)],
            LeastLoadedRouter(),
            trace,
        )
        assert cluster.token_hit_rate == pytest.approx(single.token_hit_rate)
        assert cluster.ttft_percentile(95) == pytest.approx(single.ttft_percentile(95))

    def test_prefix_affinity_beats_round_robin_on_hit_rate(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=20, seed=23)
        affinity = simulate_cluster(
            hybrid, self._caches(hybrid, 4), PrefixAffinityRouter(), trace
        )
        scattered = simulate_cluster(
            hybrid, self._caches(hybrid, 4), RoundRobinRouter(), trace
        )
        assert affinity.token_hit_rate > scattered.token_hit_rate

    def test_session_affinity_preserves_conversation_reuse(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=20, seed=24)
        sticky = simulate_cluster(
            hybrid, self._caches(hybrid, 4), SessionAffinityRouter(), trace
        )
        scattered = simulate_cluster(
            hybrid, self._caches(hybrid, 4), RoundRobinRouter(), trace
        )
        assert sticky.token_hit_rate > scattered.token_hit_rate

    def test_round_robin_balances_request_counts(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=16, seed=25)
        result = simulate_cluster(
            hybrid, self._caches(hybrid, 4), RoundRobinRouter(), trace
        )
        counts = result.routed_counts
        assert max(counts) - min(counts) <= 1

    def test_fairness_metrics_exposed(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=12, seed=26)
        result = simulate_cluster(
            hybrid, self._caches(hybrid, 3), LeastLoadedRouter(), trace
        )
        assert 1 / 3 <= result.load_fairness <= 1.0
        assert result.load_imbalance >= 0.0

    def test_rejects_empty_cluster(self, hybrid):
        from repro.cluster.simulator import ClusterSimulator

        with pytest.raises(ValueError):
            ClusterSimulator(hybrid, [], RoundRobinRouter())

    def test_invalid_router_output_raises(self, hybrid):
        class BadRouter(RoundRobinRouter):
            def route(self, tokens, session_id, caches, loads, now):
                return 99

        trace = generate_lmsys_trace(n_sessions=2, seed=27)
        with pytest.raises(ValueError):
            simulate_cluster(hybrid, self._caches(hybrid, 2), BadRouter(), trace)
