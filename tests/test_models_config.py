"""Tests for ModelConfig validation and derived properties."""

import dataclasses

import pytest

from repro.models.config import LayerType, ModelConfig
from repro.models.presets import (
    PRESETS,
    get_preset,
    hybrid_7b,
    hybrid_with_composition,
    hybrid_with_state_dim,
    jamba_mini_like,
    mamba_7b,
    tiny_test_model,
    transformer_7b,
)


class TestValidation:
    def test_rejects_non_positive_d_model(self):
        with pytest.raises(ValueError, match="d_model"):
            ModelConfig("x", d_model=0, d_state=16, n_attention=1, n_ssm=1, n_mlp=1)

    def test_rejects_zero_d_state_with_ssm_layers(self):
        with pytest.raises(ValueError, match="d_state"):
            ModelConfig("x", d_model=64, d_state=0, n_attention=1, n_ssm=2, n_mlp=1)

    def test_allows_zero_d_state_without_ssm_layers(self):
        config = ModelConfig("x", d_model=64, d_state=0, n_attention=2, n_ssm=0, n_mlp=2, n_heads=4)
        assert config.is_pure_transformer

    def test_rejects_negative_layer_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            ModelConfig("x", d_model=64, d_state=16, n_attention=-1, n_ssm=1, n_mlp=1)

    def test_rejects_empty_model(self):
        with pytest.raises(ValueError, match="at least one layer"):
            ModelConfig("x", d_model=64, d_state=16, n_attention=0, n_ssm=0, n_mlp=0)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig("x", d_model=65, d_state=16, n_attention=1, n_ssm=0, n_mlp=1, n_heads=4)

    def test_rejects_bad_dtype_bytes(self):
        with pytest.raises(ValueError, match="dtype_bytes"):
            ModelConfig("x", d_model=64, d_state=16, n_attention=0, n_ssm=1, n_mlp=1, dtype_bytes=0)


class TestDerived:
    def test_d_inner_is_expanded(self, hybrid):
        assert hybrid.d_inner == hybrid.expand * hybrid.d_model

    def test_layer_counts_paper_hybrid(self, hybrid):
        assert hybrid.layer_counts() == {
            LayerType.ATTENTION: 4,
            LayerType.SSM: 24,
            LayerType.MLP: 28,
        }
        assert hybrid.n_layers == 56

    def test_recurrent_flags(self, hybrid, transformer):
        assert hybrid.has_recurrent_layers and not hybrid.is_pure_transformer
        assert transformer.is_pure_transformer and not transformer.has_recurrent_layers

    def test_attention_ssm_ratio(self, hybrid, transformer):
        assert hybrid.attention_ssm_ratio == pytest.approx(4 / 24)
        assert transformer.attention_ssm_ratio == float("inf")

    def test_frozen(self, hybrid):
        with pytest.raises(dataclasses.FrozenInstanceError):
            hybrid.d_model = 1


class TestConstructors:
    def test_with_state_dim(self, hybrid):
        smaller = hybrid.with_state_dim(16)
        assert smaller.d_state == 16
        assert smaller.n_ssm == hybrid.n_ssm
        assert "N16" in smaller.name

    def test_with_composition(self, hybrid):
        swapped = hybrid.with_composition(30, 5)
        assert (swapped.n_ssm, swapped.n_attention) == (30, 5)
        assert swapped.n_mlp == hybrid.n_mlp


class TestPresets:
    def test_all_presets_construct(self):
        for name in PRESETS:
            config = get_preset(name)
            assert config.n_layers > 0

    def test_get_preset_unknown(self):
        with pytest.raises(KeyError, match="unknown model preset"):
            get_preset("nope")

    def test_paper_dimensions(self):
        m = hybrid_7b()
        assert (m.d_model, m.d_state) == (4096, 128)
        assert m.dtype_bytes == 2  # FP16

    def test_transformer_is_llama_shaped(self):
        m = transformer_7b()
        assert (m.n_attention, m.n_ssm, m.n_mlp) == (32, 0, 32)

    def test_jamba_is_one_attention_per_seven_ssm(self):
        m = jamba_mini_like()
        assert m.n_ssm == 7 * m.n_attention
        assert m.n_mlp == m.n_attention + m.n_ssm
        assert (m.d_model, m.d_state) == (4096, 128)

    def test_mamba_is_pure_ssm(self):
        m = mamba_7b()
        assert m.n_attention == 0 and m.n_mlp == 0 and m.n_ssm == 64

    def test_composition_preset_pure_transformer_end(self):
        m = hybrid_with_composition(0, 36)
        assert m.is_pure_transformer
        assert m.n_attention == 36

    def test_composition_preset_keeps_mlp(self):
        base = hybrid_7b()
        for ssm, attn in [(32, 4), (30, 5), (28, 7), (24, 12)]:
            m = hybrid_with_composition(ssm, attn)
            assert m.n_mlp == base.n_mlp
            assert (m.n_ssm, m.n_attention) == (ssm, attn)

    def test_state_dim_preset(self):
        for dim in (128, 64, 32, 16):
            assert hybrid_with_state_dim(dim).d_state == dim

    def test_tiny_model_usable_by_nn(self):
        m = tiny_test_model()
        assert m.d_model % m.n_heads == 0
        assert m.vocab_size <= 1024
