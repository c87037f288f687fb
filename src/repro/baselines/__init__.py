"""Baseline prefix-caching systems the paper compares against.

* :class:`VanillaCache` — no prefix caching at all.
* :class:`VLLMPlusCache` — "vLLM+": fine-grained token-block checkpointing
  (one KV block + one full recurrent state per block) with leaf-LRU
  eviction, i.e. vLLM's caching policy extended to hybrid models.
* :class:`SGLangPlusCache` — "SGLang+" / artifact policy V1: Marconi's
  radix tree and judicious admission, but plain LRU eviction.
* :mod:`repro.baselines.oracle` — artifact policy V3: the offline-optimal
  static-alpha oracle.
"""

from repro.baselines.block_store import Block, BlockStore
from repro.baselines.oracle import OracleResult, tune_static_alpha
from repro.baselines.registry import POLICY_NAMES, make_cache
from repro.baselines.sglang_plus import SGLangPlusCache
from repro.baselines.vanilla import VanillaCache
from repro.baselines.vllm_plus import VLLMPlusCache
from repro.core.interfaces import CacheProtocol

__all__ = [
    "CacheProtocol",
    "Block",
    "BlockStore",
    "VanillaCache",
    "VLLMPlusCache",
    "SGLangPlusCache",
    "OracleResult",
    "tune_static_alpha",
    "make_cache",
    "POLICY_NAMES",
]
