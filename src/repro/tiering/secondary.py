"""The second-tier store: self-contained prefix states keyed by exact tokens.

Entries are *flat* — no radix structure — because a demoted prefix is a
sealed blob: the recurrent checkpoint plus the KVs of every token in the
prefix.  Lookup asks one question: what is the deepest stored prefix of a
query that fits under ``max_len``?  Entries are bucketed by length and
hold their tokens' bytes once (``key``; ``tokens`` views them); the store
tests, longest bucket first, whether the query's own bytes start with an
entry's: a mismatch stops at the first differing byte, nothing is copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.core.eviction import _rank_normalize
from repro.core.interfaces import as_token_array
from repro.core.tokens import token_bytes


@dataclass(eq=False)
class SecondaryEntry:
    """One demoted prefix: ``tokens`` (a view of ``key``, their bytes) + bookkeeping."""

    tokens: np.ndarray
    key: bytes
    nbytes: int
    last_access: float
    flop_efficiency: float
    created_at: float
    hits: int = 0
    payload: Any = None

    @property
    def seq_len(self) -> int:
        return len(self.tokens)


@dataclass
class _StoreStats:
    insertions: int = 0
    hits: int = 0
    evictions: int = 0
    evicted_bytes: int = 0
    rejected: int = 0
    # Entries that arrived over the cluster interconnect (cross-replica
    # state transfers) rather than by local demotion.
    transfers_in: int = 0
    transfer_bytes_in: int = 0


class SecondaryStore:
    """Capacity-bounded flat store of demoted prefix states.

    Parameters
    ----------
    capacity_bytes:
        Second-tier budget.
    policy:
        ``"lru"`` evicts by last access; ``"flop_aware"`` scores entries
        with the same rank-normalized ``recency + alpha * flop_efficiency``
        utility as the primary tier, so the two tiers can share Marconi's
        eviction philosophy end to end.
    alpha:
        FLOP-efficiency weight for the ``flop_aware`` policy.
    """

    def __init__(
        self,
        capacity_bytes: int,
        *,
        policy: str = "lru",
        alpha: float = 1.0,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be non-negative, got {capacity_bytes}")
        if policy not in ("lru", "flop_aware"):
            raise ValueError(f"policy must be 'lru' or 'flop_aware', got {policy!r}")
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.capacity_bytes = int(capacity_bytes)
        self.policy = policy
        self.alpha = alpha
        self._by_length: dict[int, list[SecondaryEntry]] = {}
        self._used = 0
        self.stats = _StoreStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def n_entries(self) -> int:
        return sum(len(bucket) for bucket in self._by_length.values())

    def __contains__(self, tokens: Any) -> bool:
        arr, data = token_bytes(tokens)
        return self._held(len(arr), data) is not None

    def _held(self, length: int, data: bytes) -> Optional[SecondaryEntry]:
        """The entry of ``length`` tokens that ``data`` (at least as long;
        a handle's bytes run past its length) starts with, read in place."""
        for entry in self._by_length.get(length, ()):
            if data.startswith(entry.key):
                return entry
        return None

    def iter_entries(self):
        """Yield every stored entry (no particular order)."""
        for bucket in self._by_length.values():
            yield from bucket

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(
        self,
        tokens: np.ndarray,
        nbytes: int,
        now: float,
        *,
        flop_efficiency: float = 0.0,
        payload: Any = None,
    ) -> bool:
        """Store a demoted prefix; returns False when it cannot fit.

        Re-inserting an existing prefix refreshes its bookkeeping (the
        newer demotion wins), charging only the byte delta.
        """
        arr = as_token_array(tokens)
        if len(arr) == 0:
            raise ValueError("cannot store an empty prefix")
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        key = arr.tobytes()  # the entry's one copy of its tokens
        bucket = self._by_length.setdefault(len(arr), [])
        existing = self._held(len(arr), key)
        if existing is not None:
            bucket.remove(existing)
            self._used -= existing.nbytes
        if nbytes > self.capacity_bytes:
            self.stats.rejected += 1
            self._drop_empty_bucket(len(arr))
            return False
        self._evict_until(self.capacity_bytes - nbytes)
        bucket = self._by_length.setdefault(len(arr), [])
        bucket.append(
            SecondaryEntry(
                tokens=np.frombuffer(key, dtype=np.int32),
                key=key,
                nbytes=int(nbytes),
                last_access=now,
                flop_efficiency=flop_efficiency,
                created_at=now,
                payload=payload,
            )
        )
        self._used += int(nbytes)
        self.stats.insertions += 1
        return True

    def receive_transfer(
        self,
        tokens: np.ndarray,
        nbytes: int,
        now: float,
        *,
        flop_efficiency: float = 0.0,
        payload: Any = None,
    ) -> bool:
        """Land a cross-replica state transfer in this store.

        Same admission semantics as :meth:`insert` (the newest copy wins,
        capacity is enforced by eviction), tracked separately so cluster
        telemetry can tell replicated state from locally demoted state.
        """
        accepted = self.insert(
            tokens, nbytes, now, flop_efficiency=flop_efficiency, payload=payload
        )
        if accepted:
            self.stats.transfers_in += 1
            self.stats.transfer_bytes_in += int(nbytes)
        return accepted

    def remove(self, tokens: np.ndarray) -> Optional[SecondaryEntry]:
        """Remove and return the entry for an exact prefix, if present."""
        arr, data = token_bytes(tokens)
        entry = self._held(len(arr), data)
        if entry is not None:
            self._discard(entry)
        return entry

    def _discard(self, entry: SecondaryEntry) -> None:
        self._by_length[entry.seq_len].remove(entry)  # by identity
        self._used -= entry.nbytes
        self._drop_empty_bucket(entry.seq_len)

    def longest_match(self, tokens: np.ndarray, max_len: int, now: float) -> Optional[SecondaryEntry]:
        """Deepest stored prefix of ``tokens`` with length <= ``max_len``.

        A match refreshes the entry's recency.
        """
        arr, data = token_bytes(tokens)
        limit = min(max_len, len(arr))
        for length in sorted(self._by_length, reverse=True):
            if length > limit:
                continue
            entry = self._held(length, data)
            if entry is not None:
                entry.last_access = now
                entry.hits += 1
                self.stats.hits += 1
                return entry
        return None

    def clear(self) -> None:
        """Drop all entries and zero the counters."""
        self._by_length.clear()
        self._used = 0
        self.stats = _StoreStats()

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _drop_empty_bucket(self, length: int) -> None:
        if not self._by_length.get(length):
            self._by_length.pop(length, None)

    def _scores(self, entries: list[SecondaryEntry]) -> list[float]:
        if self.policy == "lru" or len(entries) == 1:
            return [e.last_access for e in entries]
        recency = _rank_normalize([e.last_access for e in entries])
        efficiency = _rank_normalize([e.flop_efficiency for e in entries])
        return [r + self.alpha * e for r, e in zip(recency, efficiency)]

    def _evict_until(self, budget: int) -> None:
        while self._used > budget:
            entries = list(self.iter_entries())
            if not entries:
                return
            scores = self._scores(entries)
            victim = min(zip(scores, (e.created_at for e in entries), entries),
                         key=lambda item: (item[0], item[1]))[2]
            self._discard(victim)
            self.stats.evictions += 1
            self.stats.evicted_bytes += victim.nbytes

