"""Cross-subsystem composition: the extensions must work together.

Each extension (tiering, cluster routing, mixtures, analysis) was built
against the same two-phase cache protocol; these tests exercise the
combinations a deployment would actually run — tiered caches behind a
prefix-affinity router serving a multi-tenant mixture — and check the
global invariants survive the stacking.
"""

import numpy as np
import pytest

from repro.analysis import classify_trace
from repro.baselines import tune_static_alpha
from repro.cluster import PrefixAffinityRouter, simulate_cluster
from repro.core.cache import MarconiCache
from repro.models.memory import node_state_bytes
from repro.tiering import TieredMarconiCache
from repro.workloads import generate_trace, mix_streams


class TestTieredCluster:
    def test_tiered_replicas_behind_prefix_router(self, hybrid):
        trace = generate_trace("lmsys", n_sessions=16, seed=41)
        per_seq = node_state_bytes(hybrid, 2000, True)
        caches = [
            TieredMarconiCache(hybrid, 2 * per_seq, int(50e9), alpha=1.0)
            for _ in range(3)
        ]
        result = simulate_cluster(hybrid, caches, PrefixAffinityRouter(), trace)
        assert result.n_requests == trace.n_requests
        for cache in caches:
            cache.check_integrity()

    def test_tiered_cluster_beats_plain_cluster(self, hybrid):
        """Stacking a second tier under each replica recovers hit rate."""
        trace = generate_trace("lmsys", n_sessions=24, seed=42, mean_think_s=8.0)
        per_seq = node_state_bytes(hybrid, 2000, True)

        def run(factory):
            caches = [factory() for _ in range(3)]
            return simulate_cluster(
                hybrid, caches, PrefixAffinityRouter(), trace
            ).token_hit_rate

        plain = run(lambda: MarconiCache(hybrid, 2 * per_seq, alpha=1.0))
        tiered = run(
            lambda: TieredMarconiCache(hybrid, 2 * per_seq, int(100e9), alpha=1.0)
        )
        assert tiered >= plain


class TestMixtureComposition:
    def test_mixture_through_cluster(self, hybrid):
        chat = generate_trace("lmsys", n_sessions=8, seed=43)
        agent = generate_trace("swebench", n_sessions=3, seed=44)
        mixed = mix_streams([chat, agent]).materialize()
        per_seq = node_state_bytes(hybrid, 3000, True)
        caches = [MarconiCache(hybrid, 6 * per_seq, alpha=1.0) for _ in range(2)]
        result = simulate_cluster(hybrid, caches, PrefixAffinityRouter(), mixed)
        assert result.n_requests == mixed.n_requests

    def test_taxonomy_of_mixture_sums_components(self):
        chat = generate_trace("lmsys", n_sessions=8, seed=45)
        agent = generate_trace("swebench", n_sessions=3, seed=46)
        mixed = mix_streams([chat, agent]).materialize()
        combined = classify_trace(mixed)
        assert combined.input_tokens == (
            chat.total_input_tokens + agent.total_input_tokens
        )
        # Components don't share vocab material, so the mixture's
        # opportunity can't exceed the sum of per-component opportunities.
        separate = classify_trace(chat).reusable_token_share * chat.total_input_tokens
        separate += classify_trace(agent).reusable_token_share * agent.total_input_tokens
        mixed_reusable = combined.reusable_token_share * combined.input_tokens
        assert mixed_reusable <= separate + 1e-6


class TestOracleHelpers:
    def test_the_nominal_log_is_ordered_and_extends(self, hybrid):
        trace = generate_trace("lmsys", n_sessions=5, seed=47)
        log = list(trace.iter_requests_nominal())
        assert len(log) == trace.n_requests
        times = [now for now, *_ in log]
        assert times == sorted(times)
        for _, _, _, inp, full in log:
            assert len(full) > len(inp)
            assert np.array_equal(full[: len(inp)], inp)

    def test_oracle_runs_on_flattened_trace(self, hybrid):
        trace = generate_trace("lmsys", n_sessions=8, seed=48)
        capacity = 4 * node_state_bytes(hybrid, 2000, True)
        result = tune_static_alpha(
            hybrid, capacity, list(trace.iter_requests_nominal()), alpha_grid=(0.0, 1.0)
        )
        assert set(result.hit_rates) == {0.0, 1.0}
        assert result.best_hit_rate == max(result.hit_rates.values())
