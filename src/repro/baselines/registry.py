"""Factory for the caching policies evaluated in the paper."""

from __future__ import annotations

from typing import Any

from repro.baselines.sglang_plus import SGLangPlusCache
from repro.baselines.vanilla import VanillaCache
from repro.baselines.vllm_plus import VLLMPlusCache
from repro.core.cache import MarconiCache
from repro.core.interfaces import PrefixCache
from repro.models.config import ModelConfig

POLICY_NAMES: tuple[str, ...] = (
    "vanilla",
    "vllm+",
    "sglang+",
    "marconi",
    "marconi-fixed",
    "gdsf",
)


def make_cache(
    policy: str,
    model: ModelConfig,
    capacity_bytes: int,
    *,
    block_size: int = 32,
    alpha: float | None = None,
    **kwargs: Any,
) -> PrefixCache:
    """Build a cache by policy name.

    ``marconi`` uses the online bootstrap alpha tuner; ``marconi-fixed``
    pins ``alpha`` (defaults to 1.0) and is the only policy that takes one
    — passing ``alpha`` to any other raises ``ValueError`` rather than
    building (and letting callers memoize) an identical cache per value;
    ``gdsf`` is the ablation comparator from section 4.2's discussion of
    size-aware eviction.
    """
    if alpha is not None and policy != "marconi-fixed":
        raise ValueError(
            f"policy {policy!r} takes no alpha (got {alpha}); "
            f"only 'marconi-fixed' pins one"
        )
    if policy == "vanilla":
        return VanillaCache(model)
    if policy == "vllm+":
        return VLLMPlusCache(model, capacity_bytes, block_size=block_size, **kwargs)
    if policy == "sglang+":
        return SGLangPlusCache(model, capacity_bytes, **kwargs)
    if policy == "marconi":
        return MarconiCache(
            model, capacity_bytes, eviction="flop_aware", alpha=None, **kwargs
        )
    if policy == "marconi-fixed":
        return MarconiCache(
            model,
            capacity_bytes,
            eviction="flop_aware",
            alpha=1.0 if alpha is None else alpha,
            **kwargs,
        )
    if policy == "gdsf":
        return MarconiCache(model, capacity_bytes, eviction="gdsf", **kwargs)
    raise KeyError(f"unknown policy {policy!r}; known: {POLICY_NAMES}")
