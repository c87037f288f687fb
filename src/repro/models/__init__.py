"""Model architecture descriptions and analytic cost models.

This subpackage encodes the per-layer FLOP and state-size formulas from
Table 1 / Appendix A of the Marconi paper.  Every caching policy and the
serving simulator consume :class:`~repro.models.config.ModelConfig` through
the helpers here, so the whole reproduction shares a single source of truth
for "how much compute does a prefix hit save" and "how many bytes does a
cache entry occupy".
"""

from repro.models.config import LayerType, ModelConfig
from repro.models.efficiency import (
    flop_efficiency,
    flops_saved_per_byte_attention,
    flops_saved_per_byte_ssm,
)
from repro.models.flops import (
    attention_prefill_flops,
    mlp_prefill_flops,
    ssm_prefill_flops,
    model_prefill_flops,
    model_suffix_prefill_flops,
    flop_breakdown,
)
from repro.models.memory import (
    kv_bytes_per_token,
    ssm_state_bytes,
    conv_state_bytes,
    recurrent_state_bytes,
    model_recurrent_bytes,
    kv_bytes,
    node_state_bytes,
    block_entry_bytes,
    sequence_cache_footprint,
)
from repro.models.presets import (
    hybrid_7b,
    transformer_7b,
    mamba_7b,
    jamba_mini_like,
    tiny_test_model,
    hybrid_with_composition,
    hybrid_with_state_dim,
    PRESETS,
    get_preset,
)

__all__ = [
    "LayerType",
    "ModelConfig",
    "attention_prefill_flops",
    "mlp_prefill_flops",
    "ssm_prefill_flops",
    "model_prefill_flops",
    "model_suffix_prefill_flops",
    "flop_breakdown",
    "kv_bytes_per_token",
    "ssm_state_bytes",
    "conv_state_bytes",
    "recurrent_state_bytes",
    "model_recurrent_bytes",
    "kv_bytes",
    "node_state_bytes",
    "block_entry_bytes",
    "sequence_cache_footprint",
    "flop_efficiency",
    "flops_saved_per_byte_attention",
    "flops_saved_per_byte_ssm",
    "hybrid_7b",
    "transformer_7b",
    "mamba_7b",
    "jamba_mini_like",
    "tiny_test_model",
    "hybrid_with_composition",
    "hybrid_with_state_dim",
    "PRESETS",
    "get_preset",
]
