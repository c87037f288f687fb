"""vLLM+ — fine-grained token-block checkpointing extended to hybrid models.

This is the paper's strongest-effort extension of vLLM's prefix caching to
hybrid LLMs (section 5.1): every full token block of every finished sequence
is admitted, and in hybrid mode each block carries both the KVs of its
tokens and a full-model recurrent checkpoint at its boundary.  Eviction is
vLLM's leaf-LRU over blocks.  The per-block recurrent state is what makes
this baseline collapse under hybrid models — exactly the motivation of
section 3.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.baselines.block_store import BlockStore, BlockReuseStats, _ROOT_ID
from repro.core.interfaces import (
    AdmitResult,
    LookupResult,
    PrefixCache,
    RequestSession,
    as_token_array,
)
from repro.core.stats import CacheStats
from repro.models.config import ModelConfig
from repro.models.flops import prefill_flops_table
from repro.models.memory import kv_bytes, model_recurrent_bytes


class VLLMPlusCache(PrefixCache):
    """Block-granular prefix cache with per-block recurrent checkpoints.

    Parameters
    ----------
    model:
        Architecture being served.  For pure Transformers the per-block
        recurrent term is zero and this degenerates to vLLM's KV block cache.
    capacity_bytes:
        Cache budget.
    block_size:
        Tokens per block.  The paper uses 32, the largest size vLLM
        supports, which *favours* this baseline by minimizing the number of
        recurrent states admitted.
    """

    def __init__(
        self, model: ModelConfig, capacity_bytes: int, *, block_size: int = 32
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes}")
        self.model = model
        self._flops_table = prefill_flops_table(model)
        self.block_size = block_size
        self._capacity = int(capacity_bytes)
        self.store = BlockStore(block_size)
        self._used = 0
        self._stats = CacheStats()

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    @property
    def block_bytes(self) -> int:
        """Bytes per cached block: a block of KVs plus one recurrent state."""
        return kv_bytes(self.model, self.block_size) + model_recurrent_bytes(self.model)

    # ------------------------------------------------------------------
    # PrefixCache surface
    # ------------------------------------------------------------------
    def _begin_session(self, tokens: np.ndarray, now: float) -> RequestSession:
        tokens = as_token_array(tokens)
        if len(tokens) == 0:
            raise ValueError("cannot look up an empty token sequence")
        # At least the last input token must be prefilled for first-token
        # logits, so at most (len - 1) tokens' worth of whole blocks can hit.
        max_blocks = (len(tokens) - 1) // self.block_size
        chain = self.store.match_chain(tokens, max_blocks=max_blocks)
        hit_tokens = len(chain) * self.block_size
        reused_bytes = 0
        if chain:
            reused_bytes = kv_bytes(self.model, hit_tokens)
            if self.model.has_recurrent_layers:
                reused_bytes += model_recurrent_bytes(self.model)
            self.store.mark_reused(chain, hybrid=self.model.has_recurrent_layers)
            for block in chain:
                self.store.touch(block, now)
        self._stats.record_lookup(hit_tokens, len(tokens))
        self._stats.flops_saved += self._flops_table[hit_tokens]
        return RequestSession(
            self,
            LookupResult(
                hit_tokens=hit_tokens,
                input_tokens=len(tokens),
                reused_bytes=reused_bytes,
            ),
        )

    def probe(self, tokens: np.ndarray) -> int:
        """Read-only hit estimate for ``tokens`` (used by cluster routers).

        Mirrors :meth:`begin`'s block-chain walk without touching recency
        or reuse counters.
        """
        tokens = as_token_array(tokens)
        if len(tokens) == 0:
            return 0
        max_blocks = (len(tokens) - 1) // self.block_size
        return len(self.store.match_chain(tokens, max_blocks=max_blocks)) * self.block_size

    def _commit_session(
        self,
        session: RequestSession,
        tokens: np.ndarray,
        now: float,
        state_payload: Any = None,
    ) -> AdmitResult:
        tokens = as_token_array(tokens)
        if len(tokens) == 0:
            raise ValueError("cannot admit an empty token sequence")

        evicted_before = self._stats.evicted_bytes
        admitted = 0
        parent = _ROOT_ID
        truncated = False
        n_full = len(tokens) // self.block_size
        for i in range(n_full):
            chunk = tokens[i * self.block_size : (i + 1) * self.block_size]
            existing = self.store.get(parent, chunk)
            if existing is not None:
                self.store.touch(existing, now)
                parent = existing.block_id
                continue
            if not self._ensure_free(self.block_bytes):
                truncated = True
                break
            if not self.store.has_block(parent):
                # Our own chain's parent got evicted while making room;
                # caching a child would orphan it, so stop here.
                truncated = True
                break
            block = self.store.insert_block(parent, chunk, now)
            self._used += self.block_bytes
            admitted += self.block_bytes
            parent = block.block_id
        rejected = admitted == 0 and (truncated or n_full > 0)
        self._stats.record_admission(admitted, rejected=rejected)
        return AdmitResult(
            admitted_bytes=admitted,
            evicted_bytes=self._stats.evicted_bytes - evicted_before,
            rejected=rejected,
        )

    def _ensure_free(self, needed: int) -> bool:
        if needed > self._capacity:
            return False
        while self._capacity - self._used < needed:
            victim = self.store.pop_lru_leaf()
            if victim is None:
                return False
            self._used -= self.block_bytes
            self._stats.record_eviction(self.block_bytes)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def stats(self) -> CacheStats:
        return self._stats

    @property
    def reuse_stats(self) -> BlockReuseStats:
        """Block-level KV/SSM reuse counters (drives Fig. 3a)."""
        return self.store.reuse_stats

    def reset(self) -> None:
        self.detach_open_sessions()
        self.store = BlockStore(self.block_size)
        self._used = 0
        self._stats = CacheStats()

    def recompute_used_bytes(self) -> int:
        """Re-derive occupancy from the store (accounting invariant)."""
        return self.store.n_blocks * self.block_bytes

    def check_integrity(self) -> None:
        """Also: the block store is consistent and ``used_bytes`` is its blocks."""
        super().check_integrity()
        self.store.check_integrity()
        assert self._used == self.recompute_used_bytes(), "byte count out of step"
