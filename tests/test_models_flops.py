"""Tests for the Table 1 FLOP formulas."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.config import LayerType
from repro.models.flops import (
    attention_prefill_flops,
    flop_breakdown,
    layer_prefill_flops,
    mlp_prefill_flops,
    model_decode_flops_per_token,
    model_prefill_flops,
    model_suffix_prefill_flops,
    ssm_prefill_flops,
)
from repro.models.presets import PRESETS


class TestClosedForms:
    def test_attention_formula(self):
        # 8 L D^2 + 4 L^2 D at L=100, D=64.
        assert attention_prefill_flops(100, 64) == 8 * 100 * 64**2 + 4 * 100**2 * 64

    def test_mlp_formula(self):
        assert mlp_prefill_flops(100, 64) == 16 * 100 * 64**2

    def test_ssm_formula(self):
        assert ssm_prefill_flops(100, 64, 16) == 12 * 100 * 64**2 + 16 * 100 * 64 * 16 + 10 * 100

    def test_zero_length_is_zero(self, hybrid):
        assert model_prefill_flops(hybrid, 0) == 0.0

    def test_layer_dispatch_matches_direct(self, hybrid):
        assert layer_prefill_flops(LayerType.ATTENTION, 50, hybrid) == attention_prefill_flops(50, hybrid.d_model)
        assert layer_prefill_flops(LayerType.SSM, 50, hybrid) == ssm_prefill_flops(50, hybrid.d_model, hybrid.d_state)
        assert layer_prefill_flops(LayerType.MLP, 50, hybrid) == mlp_prefill_flops(50, hybrid.d_model)


class TestModelAggregates:
    def test_breakdown_sums_to_total(self, hybrid):
        breakdown = flop_breakdown(hybrid, 1000)
        assert sum(breakdown.values()) == pytest.approx(model_prefill_flops(hybrid, 1000))

    def test_breakdown_rejects_negative(self, hybrid):
        with pytest.raises(ValueError):
            flop_breakdown(hybrid, -1)
        with pytest.raises(ValueError):
            model_prefill_flops(hybrid, -1)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @given(seq_len=st.integers(0, 2_000_000))
    @settings(max_examples=200, deadline=None)
    def test_memo_miss_is_bit_equal_to_the_breakdown(self, preset, seq_len):
        """The memo's miss path evaluates the per-config (count, formula)
        pairs directly; it must produce the very float the public
        definition sums to (golden transcripts carry these values)."""
        config = PRESETS[preset]()  # a fresh config: every length is a miss
        want = sum(flop_breakdown(config, seq_len).values())
        assert model_prefill_flops(config, seq_len) == want
        assert model_prefill_flops(config, seq_len) == want  # and the hit

    def test_attention_share_grows_with_length(self, hybrid):
        """Fig. 14: the quadratic term makes attention dominate at long L."""
        shares = []
        for length in (1000, 10000, 30000):
            b = flop_breakdown(hybrid, length)
            shares.append(b[LayerType.ATTENTION] / sum(b.values()))
        assert shares[0] < shares[1] < shares[2]

    def test_monotone_in_length(self, hybrid):
        values = [model_prefill_flops(hybrid, n) for n in (1, 10, 100, 1000)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_roughly_2x_params_per_token(self, hybrid):
        """A 7B model costs ~2 * 7e9 FLOPs per prefill token at short L."""
        per_token = model_prefill_flops(hybrid, 1000) / 1000
        assert 0.5e10 < per_token < 3e10


class TestSuffixFlops:
    def test_full_reuse_is_free(self, hybrid):
        assert model_suffix_prefill_flops(hybrid, 500, 500) == 0.0

    def test_no_reuse_is_full_prefill(self, hybrid):
        assert model_suffix_prefill_flops(hybrid, 500, 0) == model_prefill_flops(hybrid, 500)

    def test_additivity(self, hybrid):
        """prefill(0->a) + prefill(a->b) == prefill(0->b) for every layer type."""
        a, b = 300, 900
        combined = model_prefill_flops(hybrid, a) + model_suffix_prefill_flops(hybrid, b, a)
        assert combined == pytest.approx(model_prefill_flops(hybrid, b))

    def test_rejects_bad_range(self, hybrid):
        with pytest.raises(ValueError):
            model_suffix_prefill_flops(hybrid, 10, 20)

    def test_suffix_attention_quadratic_accounting(self, transformer):
        """Prefilling the second half of 2L costs more than prefilling L
        from scratch (the suffix attends to the full context)."""
        length = 1000
        suffix = model_suffix_prefill_flops(transformer, 2 * length, length)
        fresh = model_prefill_flops(transformer, length)
        assert suffix > fresh


class TestDecodeFlops:
    def test_decode_is_marginal_prefill(self, hybrid):
        expected = model_prefill_flops(hybrid, 101) - model_prefill_flops(hybrid, 100)
        assert model_decode_flops_per_token(hybrid, 100) == pytest.approx(expected)

    def test_decode_grows_with_context_for_attention(self, transformer):
        assert model_decode_flops_per_token(transformer, 10000) > model_decode_flops_per_token(transformer, 100)

    def test_rejects_negative_context(self, hybrid):
        with pytest.raises(ValueError):
            model_decode_flops_per_token(hybrid, -1)
