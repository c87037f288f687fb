"""State-size formulas (Appendix A of the paper).

In FP16, the KVs of one Attention layer for ``L`` tokens occupy
``2 (K and V) * L * D * dtype_bytes = 4 L D`` bytes, and one SSM layer's
recurrent state occupies ``D * N * dtype_bytes = 2 D N`` bytes plus a small
causal-conv1d state of ``d_inner * (d_conv - 1) ~ in_channels * conv_kernel``
bytes (about 6% of the total for the paper's 7B hybrid; the paper omits it
from Table 1 "for simplicity, but they are included in all experiments" —
we include it everywhere too).

The per-config byte constants are kept beside its FLOP table
(``docs/architecture.md``, "Model costs").
"""

from __future__ import annotations

from repro.models.config import ModelConfig


def kv_bytes_per_token(config: ModelConfig) -> int:
    """Bytes of KV cache per token across *all* Attention layers."""
    cached = config.__dict__
    value = cached.get("_kv_bytes_per_token")
    if value is None:
        per_layer = 2 * config.d_model * config.dtype_bytes  # K and V
        value = cached["_kv_bytes_per_token"] = config.n_attention * per_layer
    return value


def ssm_state_bytes(config: ModelConfig) -> int:
    """Bytes of the recurrent SSM state for *one* SSM layer (no conv state)."""
    return config.d_model * config.d_state * config.dtype_bytes


def conv_state_bytes(config: ModelConfig) -> int:
    """Bytes of the causal-conv1d state for one SSM layer.

    The paper sizes it as ``in_channels * conv_kernel * dtype_bytes`` with
    ``in_channels = expand * d_model``.
    """
    return config.d_inner * config.d_conv * config.dtype_bytes


def recurrent_state_bytes(config: ModelConfig) -> int:
    """Bytes of one SSM layer's full state (recurrent + conv)."""
    return ssm_state_bytes(config) + conv_state_bytes(config)


def model_recurrent_bytes(config: ModelConfig) -> int:
    """Bytes of one full-model recurrent checkpoint (all SSM layers)."""
    cached = config.__dict__
    value = cached.get("_recurrent_bytes")
    if value is None:
        value = cached["_recurrent_bytes"] = config.n_ssm * recurrent_state_bytes(config)
    return value


def kv_bytes(config: ModelConfig, n_tokens: int) -> int:
    """Bytes of KV cache for ``n_tokens`` tokens across all Attention layers."""
    if n_tokens < 0:
        raise ValueError(f"n_tokens must be non-negative, got {n_tokens}")
    return n_tokens * kv_bytes_per_token(config)


def transfer_state_bytes(config: ModelConfig, depth: int) -> int:
    """Bytes of the self-contained shippable state of a ``depth``-token prefix.

    A cross-replica transfer must carry the prefix's KVs across all
    Attention layers plus exactly one full-model recurrent checkpoint.
    The recurrent part is constant in ``depth`` (tiny to ship) while the
    KV part grows linearly — the asymmetry the split-point steering
    planner exploits: shipping a *shorter* head cuts bytes almost
    proportionally, yet still carries a complete SSM state.
    """
    if depth <= 0:
        raise ValueError(f"transfer depth must be positive, got {depth}")
    return kv_bytes(config, depth) + model_recurrent_bytes(config)


def node_state_bytes(config: ModelConfig, kv_tokens: int, has_ssm_state: bool) -> int:
    """Bytes occupied by one radix-tree node's states.

    A node owns the KVs of the tokens on its incoming edge and, when it is a
    checkpoint, one full-model recurrent state.
    """
    total = kv_bytes(config, kv_tokens)
    if has_ssm_state:
        total += model_recurrent_bytes(config)
    return total


def block_entry_bytes(config: ModelConfig, block_size: int) -> int:
    """Bytes of one fine-grained token-block cache entry (vLLM+ style).

    Each block holds the KVs of ``block_size`` tokens *and* one recurrent
    checkpoint representing all tokens up to the block boundary (paper
    section 3): this per-block checkpoint is exactly what makes fine-grained
    checkpointing so expensive for hybrid models.
    """
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    return kv_bytes(config, block_size) + model_recurrent_bytes(config)


def sequence_cache_footprint(config: ModelConfig, seq_len: int, block_size: int) -> int:
    """Total bytes a single sequence occupies under fine-grained checkpointing.

    Reproduces the Fig. 3b curve: KVs grow linearly with ``seq_len`` while the
    recurrent checkpoints contribute ``floor(seq_len / block_size)`` full-model
    states.  At 10K tokens with ``block_size=16`` the paper's 7B hybrid comes
    to ~17.4 GB.
    """
    if seq_len < 0:
        raise ValueError(f"seq_len must be non-negative, got {seq_len}")
    n_blocks = seq_len // block_size
    return kv_bytes(config, seq_len) + n_blocks * model_recurrent_bytes(config)
