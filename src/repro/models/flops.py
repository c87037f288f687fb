"""Per-layer prefill FLOP formulas (Table 1 of the paper).

All functions return floats (FLOP counts overflow int32 quickly and we only
ever consume them as ratios or divide them by hardware throughput).  ``L`` is
the sequence length, ``D`` the model dimension, ``N`` the SSM state dimension.

The three closed forms, copied from Table 1:

====================  =============================
Layer                 FLOPs to prefill ``L`` tokens
====================  =============================
Attention             ``8 L D^2 + 4 L^2 D``
MLP                   ``16 L D^2``
SSM                   ``12 L D^2 + 16 L D N + 10 L``
====================  =============================

Prefilling a *suffix* on top of a reused prefix of length ``h`` costs exactly
``flops(L) - flops(h)`` for every layer family: the linear terms subtract
trivially and the quadratic Attention term ``4 L^2 D - 4 h^2 D`` accounts for
the new tokens attending to the full ``L``-token context.

Each config prices a length once, in its own table (:func:`prefill_flops_table`;
``docs/architecture.md``, "Model costs").
"""

from __future__ import annotations

from repro.models.config import LayerType, ModelConfig


def attention_prefill_flops(seq_len: int, d_model: int) -> float:
    """FLOPs for one Attention layer to prefill ``seq_len`` tokens."""
    length = float(seq_len)
    dim = float(d_model)
    return 8.0 * length * dim * dim + 4.0 * length * length * dim


def mlp_prefill_flops(seq_len: int, d_model: int) -> float:
    """FLOPs for one MLP layer to prefill ``seq_len`` tokens."""
    return 16.0 * float(seq_len) * float(d_model) ** 2


def ssm_prefill_flops(seq_len: int, d_model: int, d_state: int) -> float:
    """FLOPs for one SSM layer to prefill ``seq_len`` tokens."""
    length = float(seq_len)
    dim = float(d_model)
    state = float(d_state)
    return 12.0 * length * dim * dim + 16.0 * length * dim * state + 10.0 * length


_LAYER_FLOPS = {
    LayerType.ATTENTION: lambda L, cfg: attention_prefill_flops(L, cfg.d_model),
    LayerType.MLP: lambda L, cfg: mlp_prefill_flops(L, cfg.d_model),
    LayerType.SSM: lambda L, cfg: ssm_prefill_flops(L, cfg.d_model, cfg.d_state),
}


def layer_prefill_flops(layer: LayerType, seq_len: int, config: ModelConfig) -> float:
    """FLOPs for a single layer of the given type to prefill ``seq_len`` tokens."""
    return _LAYER_FLOPS[layer](seq_len, config)


def flop_breakdown(config: ModelConfig, seq_len: int) -> dict[LayerType, float]:
    """Total prefill FLOPs per layer family for ``seq_len`` tokens (Fig. 14)."""
    if seq_len < 0:
        raise ValueError(f"seq_len must be non-negative, got {seq_len}")
    counts = config.layer_counts()
    return {
        layer: counts[layer] * layer_prefill_flops(layer, seq_len, config)
        for layer in LayerType
    }


class _PrefillFlopsTable(dict):
    """``seq_len -> model_prefill_flops`` of one config, filled on first read.

    A miss scales each closed form above (its own products, in its order) by
    its layer count and adds the three terms left to right in ``LayerType``
    order: every float is bit-equal to the definition in
    :func:`model_prefill_flops`.  A negative length raises and stores
    nothing.
    """

    __slots__ = ("_dim", "_state", "_n_attention", "_n_ssm", "_n_mlp", "__weakref__")

    def __init__(self, config: ModelConfig) -> None:
        super().__init__()
        self._dim = float(config.d_model)
        self._state = float(config.d_state)
        self._n_attention = config.n_attention
        self._n_ssm = config.n_ssm
        self._n_mlp = config.n_mlp

    def __missing__(self, seq_len: int) -> float:
        if seq_len < 0:
            raise ValueError(f"seq_len must be non-negative, got {seq_len}")
        length = float(seq_len)
        dim = self._dim
        value = (
            self._n_attention * (8.0 * length * dim * dim + 4.0 * length * length * dim)
            + self._n_ssm
            * (12.0 * length * dim * dim + 16.0 * length * dim * self._state + 10.0 * length)
            + self._n_mlp * (16.0 * length * dim ** 2)
        )
        self[seq_len] = value
        return value


def prefill_flops_table(config: ModelConfig) -> dict[int, float]:
    """``config``'s prefill-FLOP table, which per-request pricing binds once
    and subscripts.  It sits in the config's instance dict, out of its
    fields (so out of ``==``, ``hash``, ``repr`` and pickles), and lives
    exactly as long as the config."""
    cached = config.__dict__
    table = cached.get("_prefill_flops")
    if table is None:
        table = cached["_prefill_flops"] = _PrefillFlopsTable(config)
    return table


def model_prefill_flops(config: ModelConfig, seq_len: int) -> float:
    """Total FLOPs for the whole model to prefill ``seq_len`` tokens from
    scratch: the three :func:`flop_breakdown` terms added left to right in
    ``LayerType`` order (``attention + ssm + mlp``; not ``sum``, which
    compensates float rounding from CPython 3.12 on), read from
    :func:`prefill_flops_table`."""
    return prefill_flops_table(config)[seq_len]


def model_suffix_prefill_flops(
    config: ModelConfig, seq_len: int, reused_len: int
) -> float:
    """FLOPs to prefill tokens ``reused_len..seq_len`` on top of a cached prefix.

    ``reused_len == 0`` degenerates to a full prefill; ``reused_len == seq_len``
    costs zero.  The Attention term correctly charges the suffix tokens for
    attending to the entire context.
    """
    if not 0 <= reused_len <= seq_len:
        raise ValueError(
            f"need 0 <= reused_len <= seq_len, got reused_len={reused_len}, seq_len={seq_len}"
        )
    return model_prefill_flops(config, seq_len) - model_prefill_flops(config, reused_len)
