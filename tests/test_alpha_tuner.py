"""Tests for the bootstrap alpha tuner (section 4.2)."""

import numpy as np
import pytest

from repro.core.alpha_tuner import AlphaTuner, AlphaTunerConfig, TunerPhase
from repro.core.cache import MarconiCache
from repro.models.memory import node_state_bytes


class TestConfigValidation:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            AlphaTunerConfig(alpha_grid=())

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            AlphaTunerConfig(alpha_grid=(-1.0,))

    def test_rejects_bad_multiplier(self):
        with pytest.raises(ValueError):
            AlphaTunerConfig(bootstrap_multiplier=0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            AlphaTunerConfig(min_bootstrap_requests=10, max_bootstrap_requests=5)

    def test_rejects_negative_margins(self):
        with pytest.raises(ValueError):
            AlphaTunerConfig(adoption_margin=-0.1)


class TestSelectionRule:
    def _tuner(self, **kwargs):
        return AlphaTuner(AlphaTunerConfig(**kwargs))

    def test_requires_margin_over_lru(self):
        tuner = self._tuner(adoption_margin=0.05)
        # 2% better than LRU: not enough to leave alpha=0.
        assert tuner._select_alpha({0.0: 0.50, 1.0: 0.51}) == 0.0

    def test_adopts_clear_winner(self):
        tuner = self._tuner(adoption_margin=0.03)
        assert tuner._select_alpha({0.0: 0.30, 1.0: 0.45}) == 1.0

    def test_prefers_smallest_on_plateau(self):
        tuner = self._tuner(adoption_margin=0.03, plateau_tolerance=0.02)
        results = {0.0: 0.30, 0.5: 0.447, 1.0: 0.45, 2.0: 0.449}
        assert tuner._select_alpha(results) == 0.5

    def test_zero_margin_is_pure_argmax(self):
        tuner = self._tuner(adoption_margin=0.0, plateau_tolerance=0.0)
        assert tuner._select_alpha({0.0: 0.40, 2.0: 0.401}) == 2.0


class TestLifecycle:
    def _make_cache(self, hybrid, capacity_multiple=3):
        per_seq = node_state_bytes(hybrid, 250, True)
        return MarconiCache(
            hybrid,
            capacity_bytes=capacity_multiple * per_seq,
            eviction="flop_aware",
            alpha=None,  # auto-tune
            tuner_config=AlphaTunerConfig(
                bootstrap_multiplier=2.0,
                min_bootstrap_requests=4,
                max_bootstrap_requests=16,
            ),
        )

    def _drive(self, cache, tokens, n_requests, length=200, start=0):
        for i in range(start, start + n_requests):
            seq = tokens(length, seed=5000 + i)
            s = cache.begin(seq, float(i))
            s.commit(np.concatenate([seq, tokens(50, seed=6000 + i)]), float(i) + 0.5)

    def test_starts_in_warmup_with_lru_behaviour(self, hybrid, tokens):
        cache = self._make_cache(hybrid)
        assert cache.tuner.phase is TunerPhase.WARMUP
        assert cache.alpha == 0.0

    def test_transitions_through_phases(self, hybrid, tokens):
        cache = self._make_cache(hybrid)
        self._drive(cache, tokens, 3)  # fills 3-sequence capacity
        assert cache.tuner.phase is TunerPhase.WARMUP
        self._drive(cache, tokens, 2, start=3)  # triggers first eviction
        assert cache.tuner.phase in (TunerPhase.BOOTSTRAP, TunerPhase.TUNED)
        self._drive(cache, tokens, 20, start=5)
        assert cache.tuner.phase is TunerPhase.TUNED
        assert cache.tuner.tuned_alpha is not None
        assert cache.alpha == cache.tuner.tuned_alpha

    def test_grid_search_covers_grid(self, hybrid, tokens):
        cache = self._make_cache(hybrid)
        self._drive(cache, tokens, 30)
        assert cache.tuner.is_tuned
        assert set(cache.tuner.search_results) == set(cache.tuner.config.alpha_grid)
        for rate in cache.tuner.search_results.values():
            assert 0.0 <= rate <= 1.0

    def test_no_evictions_means_no_tuning(self, hybrid, tokens):
        cache = MarconiCache(hybrid, capacity_bytes=int(1e12), alpha=None)
        self._drive(cache, tokens, 10)
        assert cache.tuner.phase is TunerPhase.WARMUP
        assert cache.alpha == 0.0

    def test_fixed_alpha_disables_tuner(self, hybrid):
        cache = MarconiCache(hybrid, capacity_bytes=int(1e9), alpha=1.5)
        assert cache.tuner is None
        assert cache.alpha == 1.5

    def test_lru_eviction_disables_tuner(self, hybrid):
        cache = MarconiCache(hybrid, capacity_bytes=int(1e9), eviction="lru")
        assert cache.tuner is None

    def test_bootstrap_progress_reporting(self, hybrid, tokens):
        cache = self._make_cache(hybrid)
        self._drive(cache, tokens, 5)
        if cache.tuner.phase is TunerPhase.BOOTSTRAP:
            recorded, target = cache.tuner.bootstrap_progress
            assert 0 <= recorded <= target

    def test_replay_does_not_disturb_live_tree(self, hybrid, tokens):
        cache = self._make_cache(hybrid)
        self._drive(cache, tokens, 25)
        assert cache.tuner.is_tuned
        cache.check_integrity()
