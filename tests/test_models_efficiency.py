"""Tests for FLOP efficiency (Eq. 1 and Table 1's derived rows)."""

import pytest

from repro.models.efficiency import (
    flop_efficiency,
    flops_saved_per_byte_attention,
    flops_saved_per_byte_ssm,
)
from repro.models.presets import hybrid_7b, mamba_7b, transformer_7b


class TestClosedForms:
    def test_attention_L_plus_2D(self):
        assert flops_saved_per_byte_attention(100, 4096) == 100 + 2 * 4096

    def test_attention_7b_is_L_plus_8192(self):
        """Table 1 last row: L + 8192 for the 7B model."""
        assert flops_saved_per_byte_attention(1000, 4096) == 1000 + 8192

    def test_ssm_7b_is_200L(self):
        """Table 1 last row: 200 L for the 7B model (D=4096, N=128)."""
        assert flops_saved_per_byte_ssm(1000, 4096, 128) == pytest.approx(200_000, rel=1e-4)

    def test_ssm_closed_form_expansion(self):
        L, D, N = 77, 64, 16
        expected = L * (6 * D / N + 8 + 5 / (D * N))
        assert flops_saved_per_byte_ssm(L, D, N) == pytest.approx(expected)

    def test_rejects_non_positive_length(self):
        with pytest.raises(ValueError):
            flops_saved_per_byte_attention(0, 64)
        with pytest.raises(ValueError):
            flops_saved_per_byte_ssm(0, 64, 16)


class TestModelEfficiency:
    def test_fig5_ordering_at_2k(self):
        """Fig. 5: at L=2000, Mamba > Hybrid >> Transformer."""
        mamba = flop_efficiency(mamba_7b(), 2000)
        hybrid = flop_efficiency(hybrid_7b(), 2000)
        transformer = flop_efficiency(transformer_7b(), 2000)
        assert mamba > hybrid > transformer
        assert hybrid / transformer > 3

    def test_fig5_magnitudes(self):
        assert flop_efficiency(mamba_7b(), 2000) == pytest.approx(3.8e5, rel=0.15)
        assert flop_efficiency(hybrid_7b(), 2000) == pytest.approx(1.7e5, rel=0.15)
        assert flop_efficiency(transformer_7b(), 2000) == pytest.approx(2.7e4, rel=0.15)

    def test_ssm_models_grow_steeply(self):
        """The slope is steeper with more SSM layers."""
        short, long = 500, 2000
        growth = {
            "mamba": flop_efficiency(mamba_7b(), long) / flop_efficiency(mamba_7b(), short),
            "hybrid": flop_efficiency(hybrid_7b(), long) / flop_efficiency(hybrid_7b(), short),
            "transformer": flop_efficiency(transformer_7b(), long) / flop_efficiency(transformer_7b(), short),
        }
        assert growth["mamba"] > growth["hybrid"] > growth["transformer"]

    def test_rejects_zero_length(self, hybrid):
        with pytest.raises(ValueError):
            flop_efficiency(hybrid, 0)

