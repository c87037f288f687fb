"""FLOP efficiency: compute saved per byte of cached state (Eq. 1, Table 1).

``flop_efficiency = total FLOPs across layers / memory of all stateful
layers' states``.  The numerator counts *every* layer family (MLP compute is
saved by a hit even though MLPs are stateless); the denominator counts only
stateful layers (Attention KVs + SSM states).
"""

from __future__ import annotations

from repro.models.config import ModelConfig
from repro.models.flops import model_prefill_flops
from repro.models.memory import kv_bytes, model_recurrent_bytes


def flop_efficiency(config: ModelConfig, seq_len: int) -> float:
    """FLOPs saved per byte when reusing a full-sequence cache entry (Fig. 5).

    For a hybrid model the entry holds ``seq_len`` tokens of KVs for each
    Attention layer plus one recurrent checkpoint per SSM layer.
    """
    if seq_len <= 0:
        raise ValueError(f"seq_len must be positive, got {seq_len}")
    saved = model_prefill_flops(config, seq_len)
    state_bytes = kv_bytes(config, seq_len) + model_recurrent_bytes(config)
    return saved / state_bytes


def flops_saved_per_byte_attention(seq_len: int, d_model: int) -> float:
    """Closed form from Table 1 for one Attention layer: ``L + 2D``.

    Derived as ``(8 L D^2 + 4 L^2 D) / (4 L D)``.
    """
    if seq_len <= 0:
        raise ValueError(f"seq_len must be positive, got {seq_len}")
    return float(seq_len) + 2.0 * float(d_model)


def flops_saved_per_byte_ssm(seq_len: int, d_model: int, d_state: int) -> float:
    """Closed form from Table 1 for one SSM layer: ``L (6D/N + 8 + 5/(D N))``.

    Derived as ``(12 L D^2 + 16 L D N + 10 L) / (2 D N)``; for the paper's 7B
    hybrid (``D=4096, N=128``) this is ~``200 L``, i.e. the efficiency of SSM
    entries scales two orders of magnitude more steeply than Attention's.
    """
    if seq_len <= 0:
        raise ValueError(f"seq_len must be positive, got {seq_len}")
    dim = float(d_model)
    state = float(d_state)
    return float(seq_len) * (6.0 * dim / state + 8.0 + 5.0 / (dim * state))
