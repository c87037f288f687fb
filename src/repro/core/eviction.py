"""Eviction policies: LRU, Marconi's FLOP-aware scoring, and classic comparators.

Eviction candidates are radix nodes with at most one child (section 4.3):
multi-child nodes are shared prefixes and are protected until their subtrees
drain.  Evicting a leaf frees its KVs and checkpoint; evicting a single-child
intermediate node frees only its checkpoint (the child absorbs the KVs), so
candidates that would free zero bytes are filtered out before scoring to
guarantee the eviction loop makes progress.

Beyond the paper's LRU baseline and FLOP-aware contribution, this module
carries the classic web-cache family section 4.2 positions Marconi against
(GDSF, plain greedy-dual-size and LFU: rows of :data:`HEAP_KEYS`), plus
LRU-K and a seeded random floor for ablations.
"""

from __future__ import annotations

import abc
import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.node import RadixNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.eviction_index import EvictionIndex


@dataclass(slots=True)
class EvictionCandidate:
    """One evictable node with everything the scoring policies need.

    ``sort_key`` is precomputed: the ``min()`` scans and the heap selectors
    compare it on every step, and the eviction index rebuilds a candidate
    whenever its inputs change, so the key can never go stale.
    """

    node: RadixNode
    freeable_bytes: int
    flop_efficiency: float
    last_access: float
    is_leaf: bool
    sort_key: tuple[float, int] = field(init=False, repr=False, compare=False)
    # Column of the eviction index's rank state, while it maintains one.
    slot: int = field(default=-1, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Deterministic tie-break: older first, then smaller node id.
        self.sort_key = (self.last_access, self.node.node_id)


class EvictionPolicy(abc.ABC):
    """Chooses which candidate to evict next.

    :meth:`select_victim` defines the policy: the victim among an explicit
    candidate list.  The cache calls :meth:`select_from_index`, which by
    default applies that definition to the maintained
    :class:`~repro.core.eviction_index.EvictionIndex`'s candidate snapshot;
    :class:`HeapEviction` answers the same question from a lazy min-heap in
    amortized O(log n), :class:`FlopAwareEviction` from the rank columns
    the index maintains for it.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def select_victim(self, candidates: list[EvictionCandidate]) -> EvictionCandidate:
        """Pick the next victim from a non-empty candidate list."""

    def bind_index(self, index: "EvictionIndex") -> None:
        """Attach to ``index``, letting go of the rank columns and the change
        feed a previously bound policy read (an unset feed costs no call)."""
        index.drop_ranks()
        index.on_candidate_changed = None

    def select_from_index(self, index: "EvictionIndex") -> EvictionCandidate:
        """Pick the next victim using the maintained candidate index."""
        return self.select_victim(index.candidates())

    def notify_eviction(self, victim: EvictionCandidate) -> None:
        """Hook called after a victim is actually evicted (LRU-K's history)."""

    def notify_access(self, node: RadixNode, now: float) -> None:
        """Hook called on every cache hit (LRU-K's access history)."""

    def reset(self) -> None:
        """Clear any internal state."""


_Key = Callable[[EvictionCandidate], tuple]

#: The policies that are nothing but an order: name -> key function, whose
#: minimum :class:`HeapEviction` evicts (recency breaks every tie).  ``gdsf``
#: and ``gds`` carry **no aging term**: the textbook inflating clock (the last
#: victim's priority) ages priorities fixed at hit time, but every candidate
#: is re-ranked at selection time here, where it is one offset shared by all.
#: An aging term that orders something changes the ``gdsf`` figures and is
#: left to the roadmap item on the comparators.
HEAP_KEYS: dict[str, _Key] = {
    # Plain least-recently-used — the SGLang+ baseline (policy V1).
    "lru": lambda c: c.sort_key,
    # Greedy-Dual-Size-Frequency (Cherkasova 1998), hits * saved_flops / size:
    # the classic size-aware scheme whose size signal the paper argues fails
    # for SSM states (saved_flops / size is exactly FLOP efficiency).
    "gdsf": lambda c: (max(1, c.node.hit_count) * c.flop_efficiency,) + c.sort_key,
    # Plain greedy-dual-size with unit cost, 1 / size: the textbook policy
    # section 4.2 targets.  An entry's byte size is its only value signal, and
    # for fixed-size recurrent checkpoints that says nothing of compute saved.
    "gds": lambda c: (1.0 / max(1, c.freeable_bytes),) + c.sort_key,
    # Fewest hits first.  Frequency has the same blind spot as recency: a
    # never-hit checkpoint of a 30K-token prefix ties with a 16-token leaf.
    "lfu": lambda c: (c.node.hit_count,) + c.sort_key,
}


class HeapEviction(EvictionPolicy):
    """Evict the minimum of a per-candidate key, from a lazy min-heap.

    One class serves every row of :data:`HEAP_KEYS`; a subclass with state
    of its own (:class:`LRUKEviction`) hands in its key function instead.
    The heap holds ``(key, seq, candidate)`` entries pushed whenever the
    bound index adds or rebuilds a candidate.  An entry is stale when the
    index no longer holds that exact candidate object (the index rebuilds
    candidates on any relevant change, so object identity doubles as a
    version check) or when its key has drifted (LRU-K history, LFU/GDSF hit
    counts: a key may only ever *increase* over a candidate's life, so
    re-pushing at the corrected key preserves min-heap correctness).
    """

    def __init__(self, name: str, key: Optional[_Key] = None) -> None:
        self.name = name
        self._heap_key = HEAP_KEYS[name] if key is None else key
        self._heap: list[tuple[tuple, int, EvictionCandidate]] = []
        self._seq = itertools.count()

    def select_victim(self, candidates: list[EvictionCandidate]) -> EvictionCandidate:
        if not candidates:
            raise ValueError("no eviction candidates")
        return min(candidates, key=self._heap_key)

    def bind_index(self, index: "EvictionIndex") -> None:
        super().bind_index(index)
        index.on_candidate_changed = self.on_candidate_changed
        self._heap = []
        if index.awake:  # a sleeping index feeds every candidate as it wakes
            for candidate in index.candidates():
                self.on_candidate_changed(candidate)

    def on_candidate_changed(self, candidate: EvictionCandidate) -> None:
        """Called by the bound index when a candidate is added or rebuilt."""
        heapq.heappush(
            self._heap, (self._heap_key(candidate), next(self._seq), candidate)
        )

    def select_from_index(self, index: "EvictionIndex") -> EvictionCandidate:
        heap = self._heap
        while heap:
            key, _, candidate = heap[0]
            if index.get(candidate.node.node_id) is not candidate:
                heapq.heappop(heap)  # superseded or evicted: discard
                continue
            fresh = self._heap_key(candidate)
            if fresh != key:
                heapq.heappop(heap)  # key drifted upward: re-rank
                heapq.heappush(heap, (fresh, next(self._seq), candidate))
                continue
            return candidate
        raise ValueError("no eviction candidates")

    def reset(self) -> None:
        self._heap = []


class LRUKEviction(HeapEviction):
    """LRU-K (O'Neil 1993): evict the oldest K-th most recent access.

    Tracks the last ``k`` access times per node via :meth:`notify_access`.
    Nodes with fewer than ``k`` recorded accesses use ``-inf`` as their
    K-th-access time (classic backward K-distance), so cold one-touch
    entries are evicted before entries with an established reuse history —
    the scan-resistance property LRU lacks.
    """

    def __init__(self, k: int = 2) -> None:
        super().__init__("lru_k", self._kth_access_key)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._history: dict[int, deque[float]] = {}

    def notify_access(self, node: RadixNode, now: float) -> None:
        history = self._history.setdefault(node.node_id, deque(maxlen=self.k))
        history.append(now)

    def _kth_access_key(self, candidate: EvictionCandidate) -> tuple:
        # Access times only move forward, so the key never decreases.
        history = self._history.get(candidate.node.node_id)
        full = history is not None and len(history) >= self.k
        return (history[0] if full else float("-inf"),) + candidate.sort_key

    def notify_eviction(self, victim: EvictionCandidate) -> None:
        self._history.pop(victim.node.node_id, None)

    def reset(self) -> None:
        super().reset()
        self._history.clear()


#: Candidate count from which :class:`FlopAwareEviction` scores from the
#: index's rank columns.  Below it NumPy's per-call overhead (a selection
#: is ~20 array calls, whatever the size) outweighs the two Python sorts it
#: saves.  Replaying lmsys (240 sessions) against caches of 8..200 states,
#: the line pinned to either arm: from-scratch selection won by 15 us per
#: victim at a median 5 candidates, the columns by 18 us at 33, 42 us at
#: 48 and 336 us at 321.  From a median 8 to 21 the arms differ by less
#: than the replay's noise, and the line at 16 or 24 against 32 read -5 to
#: +9 us per victim (medians per cache size), so it stays.  At a fixed
#: size, with three candidates touched per victim, the arms cross between
#: 12 and 16 candidates.
_MAINTAIN_RANKS_FROM = 32


class FlopAwareEviction(EvictionPolicy):
    """Marconi's utility score: ``S(n) = recency(n) + alpha * flop_efficiency(n)``.

    Both terms are rank-normalized over the current candidate set into
    (0, 1] (see :func:`_rank_normalize`), the reading of the paper's
    "normalized ... by comparing all nodes' last-accessed timestamps and
    FLOP saved/byte in the radix tree".  ``alpha = 0`` degenerates to LRU;
    a large ``alpha`` ranks purely by compute saved per byte; it is mutable
    so the bootstrap tuner can adopt the grid-search winner in place.

    Normalization is relative to the *whole* candidate set, so no heap can
    order the candidates — but between two selections only a few of them
    change, so :meth:`select_from_index` ranks the value rows the index
    keeps (:meth:`~repro.core.eviction_index.EvictionIndex.normalized_ranks`)
    in a few array expressions, equal to :func:`_rank_normalize` of the
    live values bit for bit.
    :meth:`scores` / :meth:`select_victim` are the from-scratch definition,
    and what a candidate set too small to repay the upkeep (see
    ``_MAINTAIN_RANKS_FROM``) is scored with.
    """

    name = "flop_aware"

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = alpha

    def scores(self, candidates: list[EvictionCandidate]) -> list[float]:
        """Utility score of every candidate against the candidate set."""
        recency = _rank_normalize([c.last_access for c in candidates])
        efficiency = _rank_normalize([c.flop_efficiency for c in candidates])
        return [r + self.alpha * e for r, e in zip(recency, efficiency)]

    def select_victim(self, candidates: list[EvictionCandidate]) -> EvictionCandidate:
        """``argmin`` of ``(scores(candidates), sort_key)``."""
        if not candidates:
            raise ValueError("no eviction candidates")
        scores = self.scores(candidates)
        lowest = min(scores)
        tied = [c for c, score in zip(candidates, scores) if score == lowest]
        return min(tied, key=lambda c: c.sort_key)

    def select_from_index(self, index: "EvictionIndex") -> EvictionCandidate:
        """The same ``argmin``, from the index's columns once NumPy repays."""
        if len(index) < _MAINTAIN_RANKS_FROM:
            index.drop_ranks()
            return self.select_victim(index.candidates())
        candidates, (recency, efficiency) = index.normalized_ranks()
        scores = recency + self.alpha * efficiency
        first = scores.argmin()
        lowest = (scores == scores[first]).nonzero()[0]
        if len(lowest) == 1:
            return candidates[first]
        return min((candidates[slot] for slot in lowest), key=lambda c: c.sort_key)


class RandomEviction(EvictionPolicy):
    """Uniform-random victim selection (seeded); the ablation floor."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = random.Random(seed)

    def select_victim(self, candidates: list[EvictionCandidate]) -> EvictionCandidate:
        if not candidates:
            raise ValueError("no eviction candidates")
        return self._rng.choice(candidates)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


def _rank_normalize(values: list[float]) -> list[float]:
    """Average-rank normalization into (0, 1], tie-aware: scale-free, so a
    recency score does not depend on how long the process has been up."""
    n = len(values)
    order = sorted(range(n), key=values.__getitem__)
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        value = values[order[i]]
        while j + 1 < n and values[order[j + 1]] == value:
            j += 1
        # 1-based average rank for the tie group [i, j].
        rank = ((i + j) / 2.0 + 1.0) / n
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def make_eviction_policy(name: str, alpha: float | None = None) -> EvictionPolicy:
    """Instantiate an eviction policy by name: a row of :data:`HEAP_KEYS`
    (``lru``, ``gdsf``, ``gds``, ``lfu``), ``flop_aware`` (uses ``alpha``),
    ``lru_k`` or ``random``."""
    if name in HEAP_KEYS:
        return HeapEviction(name)
    if name == "flop_aware":
        return FlopAwareEviction() if alpha is None else FlopAwareEviction(alpha)
    if name == "lru_k":
        return LRUKEviction()
    if name == "random":
        return RandomEviction()
    known = sorted([*HEAP_KEYS, "flop_aware", "lru_k", "random"])
    raise KeyError(f"unknown eviction policy {name!r}; known: {known}")
