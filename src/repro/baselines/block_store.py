"""Hash-chained token-block store: the substrate of the vLLM+ baseline.

vLLM's prefix cache keys each fixed-size token block by the hash chain of
its content plus its parent block, so a block's KVs are only reusable when
every ancestor block is also cached.  Eviction removes least-recently-used
*leaf* blocks (blocks no cached block builds on), mirroring vLLM's
hash-based prefix caching.

The store tracks token mechanics, recency, and reuse counters; byte
accounting lives in :class:`repro.baselines.vllm_plus.VLLMPlusCache` so the
same store can serve hybrid and pure-Transformer configurations.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

_ROOT_ID = 0


@dataclass
class Block:
    """One cached token block.

    ``depth`` is the 1-based index of the block within its sequence; the
    block's recurrent checkpoint (in hybrid mode) represents all
    ``depth * block_size`` tokens up to its boundary.
    """

    block_id: int
    key: tuple[int, bytes]
    parent_id: int
    depth: int
    last_access: float
    n_children: int = 0
    kv_reused: bool = False
    ssm_reused: bool = False


@dataclass
class BlockReuseStats:
    """Counters behind the paper's Fig. 3a (block reuse rates)."""

    blocks_created: int = 0
    blocks_kv_reused: int = 0
    blocks_ssm_reused: int = 0

    @property
    def kv_reuse_rate(self) -> float:
        if self.blocks_created == 0:
            return 0.0
        return self.blocks_kv_reused / self.blocks_created

    @property
    def ssm_reuse_rate(self) -> float:
        if self.blocks_created == 0:
            return 0.0
        return self.blocks_ssm_reused / self.blocks_created


class BlockStore:
    """Token blocks keyed by (parent block, block content) hash chains."""

    def __init__(self, block_size: int) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.block_size = block_size
        self._by_key: dict[tuple[int, bytes], Block] = {}
        self._by_id: dict[int, Block] = {}
        self._ids = itertools.count(1)
        self._heap: list[tuple[float, int, int]] = []  # (last_access, seq, id)
        self._heap_seq = itertools.count()
        # Internal block id -> its earliest valid entry (``pop_lru_leaf``).
        self._parked: dict[int, tuple[float, int, int]] = {}
        self.reuse_stats = BlockReuseStats()

    # ------------------------------------------------------------------
    # Token mechanics
    # ------------------------------------------------------------------
    def _block_key(self, parent_id: int, tokens: np.ndarray) -> tuple[int, bytes]:
        return (parent_id, np.ascontiguousarray(tokens, dtype=np.int32).tobytes())

    def _full_blocks(self, tokens: np.ndarray) -> Iterator[np.ndarray]:
        for start in range(0, (len(tokens) // self.block_size) * self.block_size, self.block_size):
            yield tokens[start : start + self.block_size]

    def match_chain(self, tokens: np.ndarray, max_blocks: Optional[int] = None) -> list[Block]:
        """Longest chain of cached blocks matching a prefix of ``tokens``."""
        matched: list[Block] = []
        parent = _ROOT_ID
        for i, chunk in enumerate(self._full_blocks(tokens)):
            if max_blocks is not None and i >= max_blocks:
                break
            block = self._by_key.get(self._block_key(parent, chunk))
            if block is None:
                break
            matched.append(block)
            parent = block.block_id
        return matched

    def touch(self, block: Block, now: float) -> None:
        """Refresh a block's recency (lazy-heap entry per touch)."""
        block.last_access = now
        heapq.heappush(self._heap, (now, next(self._heap_seq), block.block_id))

    def mark_reused(self, chain: list[Block], hybrid: bool) -> None:
        """Update reuse counters after a hit on ``chain``.

        A hit reuses the KVs of every matched block but the recurrent state
        of only the *last* matched block (section 3's sparsely-hit entries).
        """
        for block in chain:
            if not block.kv_reused:
                block.kv_reused = True
                self.reuse_stats.blocks_kv_reused += 1
        if hybrid and chain:
            last = chain[-1]
            if not last.ssm_reused:
                last.ssm_reused = True
                self.reuse_stats.blocks_ssm_reused += 1

    def insert_block(self, parent_id: int, tokens: np.ndarray, now: float) -> Block:
        """Insert one (full) block; the caller has already charged its bytes."""
        if len(tokens) != self.block_size:
            raise ValueError(
                f"can only insert full blocks of {self.block_size} tokens, got {len(tokens)}"
            )
        key = self._block_key(parent_id, tokens)
        if key in self._by_key:
            raise ValueError("block already cached")
        parent = self._by_id.get(parent_id)
        if parent_id != _ROOT_ID and parent is None:
            raise ValueError(f"parent block {parent_id} is not cached")
        depth = 1 if parent is None else parent.depth + 1
        block = Block(
            block_id=next(self._ids),
            key=key,
            parent_id=parent_id,
            depth=depth,
            last_access=now,
        )
        self._by_key[key] = block
        self._by_id[block.block_id] = block
        if parent is not None:
            parent.n_children += 1
        self.reuse_stats.blocks_created += 1
        heapq.heappush(self._heap, (now, next(self._heap_seq), block.block_id))
        return block

    def get(self, parent_id: int, tokens: np.ndarray) -> Optional[Block]:
        return self._by_key.get(self._block_key(parent_id, tokens))

    def has_block(self, block_id: int) -> bool:
        return block_id == _ROOT_ID or block_id in self._by_id

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def pop_lru_leaf(self) -> Optional[Block]:
        """Remove and return the least-recently-used leaf block.

        Uses a lazy heap: stale entries (deleted blocks or superseded
        timestamps) are dropped; an internal block's earliest valid entry is
        parked, not re-pushed per eviction, until its last child goes
        (:meth:`_remove`), so equal timestamps keep their order.
        """
        heap, parked = self._heap, self._parked
        while heap:
            entry = heapq.heappop(heap)
            ts, _, block_id = entry
            block = self._by_id.get(block_id)
            if block is None or block.last_access != ts:
                continue  # stale
            if block.n_children:
                held = parked.get(block_id)
                if held is None or held[0] != ts or entry < held:
                    parked[block_id] = entry
                continue
            self._remove(block)
            return block
        return None

    def _remove(self, block: Block) -> None:
        if block.n_children:
            raise ValueError(f"block {block.block_id} still has children")
        del self._by_key[block.key]
        del self._by_id[block.block_id]
        parent = self._by_id.get(block.parent_id)
        if parent is not None:
            parent.n_children -= 1
            if not parent.n_children:
                entry = self._parked.pop(parent.block_id, None)
                if entry is not None and entry[0] == parent.last_access:
                    heapq.heappush(self._heap, entry)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return len(self._by_id)

    def iter_blocks(self) -> Iterator[Block]:
        return iter(self._by_id.values())

    def check_integrity(self) -> None:
        """Raise ``AssertionError`` on inconsistent parent/child counters."""
        child_counts: dict[int, int] = {}
        for block in self._by_id.values():
            child_counts[block.parent_id] = child_counts.get(block.parent_id, 0) + 1
        for block in self._by_id.values():
            assert block.n_children == child_counts.get(block.block_id, 0)
            if block.parent_id != _ROOT_ID:
                assert block.parent_id in self._by_id, "orphaned block"
