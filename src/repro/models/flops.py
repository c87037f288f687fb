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


#: Exact-value memo for :func:`model_prefill_flops`.  The eviction scorer and
#: latency model call it thousands of times per simulated second, so we cache
#: the *computed* float (never a refactored closed form — float association
#: differences would shift golden-trace numbers).  Keyed by ``id(config)``
#: with a strong config reference as an identity check, so a recycled id can
#: never alias a stale entry and lookups skip hashing the 11-field frozen
#: dataclass.  An entry is ``(config, seq_len -> flops, terms)``; ``terms`` is
#: the config's ``(layer count, layer formula)`` pairs in ``LayerType`` order,
#: so a miss (every length of a long-context trace is new) evaluates exactly
#: :func:`flop_breakdown`'s products in its order without building its dicts.
_PREFILL_MEMO: dict[int, tuple[ModelConfig, dict[int, float], list]] = {}
_PREFILL_MEMO_MAX_CONFIGS = 64


def _memo_entry(config: ModelConfig) -> tuple[ModelConfig, dict[int, float], list]:
    """``config``'s memo entry, created (or re-created over a stale id) on
    first sight."""
    entry = _PREFILL_MEMO.get(id(config))
    if entry is None or entry[0] is not config:
        if len(_PREFILL_MEMO) >= _PREFILL_MEMO_MAX_CONFIGS:
            _PREFILL_MEMO.clear()
        counts = config.layer_counts()
        terms = [(counts[layer], _LAYER_FLOPS[layer]) for layer in LayerType]
        entry = _PREFILL_MEMO[id(config)] = (config, {}, terms)
    return entry


def model_prefill_flops(config: ModelConfig, seq_len: int) -> float:
    """Total FLOPs for the whole model to prefill ``seq_len`` tokens from
    scratch: ``sum(flop_breakdown(config, seq_len).values())``, memoized."""
    _, per_len, terms = _memo_entry(config)
    value = per_len.get(seq_len)
    if value is None:
        if seq_len < 0:
            raise ValueError(f"seq_len must be non-negative, got {seq_len}")
        value = sum([count * flops(seq_len, config) for count, flops in terms])
        per_len[seq_len] = value
    return value


def prefill_flops_table(config: ModelConfig) -> dict[int, float]:
    """The live ``seq_len -> flops`` memo dict for ``config``.

    Hot callers (the eviction scorer) can probe this dict directly and fall
    back to :func:`model_prefill_flops` on a miss, skipping two call frames
    per lookup.  The dict is the memo itself: entries added by either path
    are shared.
    """
    return _memo_entry(config)[1]


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


def model_decode_flops_per_token(config: ModelConfig, context_len: int) -> float:
    """FLOPs to decode one token at the given context length.

    Derived as the marginal cost ``flops(L+1) - flops(L)``; used by the
    latency model for completeness (decode is memory-bound in practice, so the
    simulator's decode clock is dominated by a bandwidth term instead).
    """
    if context_len < 0:
        raise ValueError(f"context_len must be non-negative, got {context_len}")
    return model_prefill_flops(config, context_len + 1) - model_prefill_flops(
        config, context_len
    )
