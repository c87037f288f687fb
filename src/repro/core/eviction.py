"""Eviction policies: LRU, Marconi's FLOP-aware scoring, and classic comparators.

Eviction candidates are radix nodes with at most one child (section 4.3):
multi-child nodes are shared prefixes and are protected until their subtrees
drain.  Evicting a leaf frees its KVs and checkpoint; evicting a single-child
intermediate node frees only its checkpoint (the child absorbs the KVs), so
candidates that would free zero bytes are filtered out before scoring to
guarantee the eviction loop makes progress.

Beyond the paper's LRU baseline and FLOP-aware contribution, this module
carries the classic web-cache family section 4.2 positions Marconi against:
GDSF (Cherkasova 1998) and plain greedy-dual-size ("GDS", whose 1/size cost
signal is exactly the proxy the paper argues fails for fixed-size SSM
states), plus LFU, LRU-K, and a seeded random floor for ablations.
"""

from __future__ import annotations

import abc
import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.node import RadixNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.eviction_index import EvictionIndex


@dataclass(slots=True)
class EvictionCandidate:
    """One evictable node with everything the scoring policies need.

    ``sort_key`` is precomputed at construction: the ``min()`` scans and the
    heap selectors compare it on every step, and candidates are rebuilt by
    the eviction index whenever their inputs change, so the key can never go
    stale.
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
    heap-backed subclasses answer the same question from a lazy min-heap
    synced to the index, in amortized O(log n) without touching the
    candidate set, and the rank-scoring :class:`FlopAwareEviction` from the
    rank columns the index maintains for it.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def select_victim(self, candidates: list[EvictionCandidate]) -> EvictionCandidate:
        """Pick the next victim from a non-empty candidate list."""

    def bind_index(self, index: "EvictionIndex") -> None:
        """Attach to ``index``; subscribes heap selectors to its change feed.

        Policies that never overrode :meth:`on_candidate_changed` leave the
        feed unset so the index skips the callback on its flush hot path,
        and rank columns a previously bound policy read are let go.
        """
        index.drop_ranks()
        if type(self).on_candidate_changed is EvictionPolicy.on_candidate_changed:
            index.on_candidate_changed = None
        else:
            index.on_candidate_changed = self.on_candidate_changed

    def on_candidate_changed(self, candidate: EvictionCandidate) -> None:
        """Called by the bound index when a candidate is added or rebuilt."""

    def select_from_index(self, index: "EvictionIndex") -> EvictionCandidate:
        """Pick the next victim using the maintained candidate index."""
        return self.select_victim(index.candidates())

    def notify_eviction(self, victim: EvictionCandidate) -> None:
        """Hook called after a victim is actually evicted (GDSF's clock)."""

    def notify_access(self, node: RadixNode, now: float) -> None:
        """Hook called on every cache hit (LRU-K's access history)."""

    def reset(self) -> None:
        """Clear any internal state."""


class _LazyHeapPolicy(EvictionPolicy):
    """Heap-backed selection with stale-entry skipping.

    The heap holds ``(key, seq, candidate)`` entries pushed whenever the
    bound index adds or rebuilds a candidate.  An entry is stale when the
    index no longer holds that exact candidate object (the index rebuilds
    candidates on any relevant change, so object identity doubles as a
    version check) or when its key has drifted (LRU-K history, LFU/GDSF hit
    counts — all of which only ever *increase* a key, so re-pushing at the
    corrected key preserves min-heap correctness).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[tuple, int, EvictionCandidate]] = []
        self._seq = itertools.count()

    @abc.abstractmethod
    def _heap_key(self, candidate: EvictionCandidate) -> tuple:
        """Current selection key; must be non-decreasing over a candidate's
        life (candidates are rebuilt — not mutated — on any other change)."""

    def select_victim(self, candidates: list[EvictionCandidate]) -> EvictionCandidate:
        if not candidates:
            raise ValueError("no eviction candidates")
        return min(candidates, key=self._heap_key)

    def bind_index(self, index: "EvictionIndex") -> None:
        super().bind_index(index)
        self._heap = []
        for candidate in index.candidates():
            self.on_candidate_changed(candidate)

    def on_candidate_changed(self, candidate: EvictionCandidate) -> None:
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


class LRUEviction(_LazyHeapPolicy):
    """Plain least-recently-used eviction — the SGLang+ baseline (policy V1)."""

    name = "lru"

    def _heap_key(self, candidate: EvictionCandidate) -> tuple:
        return candidate.sort_key


#: Candidate count from which :class:`FlopAwareEviction` has the index
#: maintain rank columns.  Below it NumPy's per-call overhead (a selection
#: is ~10 array calls, each added or removed candidate ~10 more) outweighs
#: the two sorts it saves: replaying lmsys against caches of 8..200 states,
#: from-scratch selection won by 30-40 us per victim up to 37 candidates
#: and by 12-18 us at 48-68, maintained ranks by 14 us at 103 and 129 us
#: at 217 (bench_e2e's contended caches hold a median 416 and 218).
_MAINTAIN_RANKS_FROM = 64


class FlopAwareEviction(EvictionPolicy):
    """Marconi's utility score: ``S(n) = recency(n) + alpha * flop_efficiency(n)``.

    Both terms are rank-normalized over the current candidate set into
    (0, 1] (see :func:`_rank_normalize`), the reading of the paper's
    "normalized ... by comparing all nodes' last-accessed timestamps and
    FLOP saved/byte in the radix tree".  ``alpha = 0`` degenerates to LRU;
    a large ``alpha`` ranks purely by compute saved per byte.  ``alpha`` is
    mutable so the bootstrap tuner can adopt the grid-search winner in
    place.

    Normalization is relative to the *whole* candidate set, so no heap can
    order the candidates — but between two selections only a few of them
    change.  :meth:`select_from_index` therefore reads the tie-group bounds
    the index maintains per scored column
    (:meth:`~repro.core.eviction_index.EvictionIndex.normalized_ranks`),
    which equal :func:`_rank_normalize` of the live values bit for bit.
    :meth:`scores` / :meth:`select_victim` are the from-scratch definition
    over an explicit list, and what a candidate set too small to repay the
    upkeep (see ``_MAINTAIN_RANKS_FROM``) is scored with.
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
        """The same ``argmin``, from the index's maintained ranks once the
        candidate set is large enough to repay keeping them."""
        if len(index) < _MAINTAIN_RANKS_FROM:
            index.drop_ranks()
            return self.select_victim(index.candidates())
        candidates, (recency, efficiency) = index.normalized_ranks()
        scores = recency + self.alpha * efficiency
        lowest = np.flatnonzero(scores == scores.min())
        if len(lowest) == 1:
            return candidates[lowest[0]]
        return min((candidates[slot] for slot in lowest), key=lambda c: c.sort_key)


class GDSFEviction(_LazyHeapPolicy):
    """Greedy-Dual-Size-Frequency (Cherkasova 1998), adapted to cache entries.

    ``H(n) = clock + hit_count * saved_flops / size``.  The paper discusses
    GDSF as the classic size-aware scheme whose size signal fails for SSM
    states; we include it as an ablation comparator.  Since ``saved_flops /
    size`` is exactly FLOP efficiency, the adaptation uses it as the cost
    term, with the standard inflating clock providing aging.

    Ordering omits the clock everywhere: priorities are recomputed against
    the live clock at selection time, so within one selection the clock is a
    constant offset shared by every candidate and cannot change the
    mathematical ordering — but adding a large clock to small cost terms
    *can* absorb their difference in float64 and flatten real distinctions
    into tie-breaks.  Ranking by the clock-free key keeps the list scan and
    the heap selector decision-identical at any clock magnitude.
    """

    name = "gdsf"

    def __init__(self) -> None:
        super().__init__()
        self._clock = 0.0

    def _priority(self, candidate: EvictionCandidate) -> float:
        frequency = max(1, candidate.node.hit_count)
        return self._clock + frequency * candidate.flop_efficiency

    def _heap_key(self, candidate: EvictionCandidate) -> tuple:
        frequency = max(1, candidate.node.hit_count)
        return (frequency * candidate.flop_efficiency,) + candidate.sort_key

    def notify_eviction(self, victim: EvictionCandidate) -> None:
        self._clock = self._priority(victim)

    def reset(self) -> None:
        super().reset()
        self._clock = 0.0


class LFUEviction(_LazyHeapPolicy):
    """Least-frequently-used: evict the candidate with the fewest hits.

    Frequency alone has the same blind spot as recency for hybrid states —
    a never-hit checkpoint of a 30K-token prefix ties with a never-hit
    16-token leaf — so this serves as an ablation comparator, with recency
    breaking frequency ties.
    """

    name = "lfu"

    def _heap_key(self, candidate: EvictionCandidate) -> tuple:
        return (candidate.node.hit_count,) + candidate.sort_key


class LRUKEviction(_LazyHeapPolicy):
    """LRU-K (O'Neil 1993): evict the oldest K-th most recent access.

    Tracks the last ``k`` access times per node via :meth:`notify_access`.
    Nodes with fewer than ``k`` recorded accesses use ``-inf`` as their
    K-th-access time (classic backward K-distance), so cold one-touch
    entries are evicted before entries with an established reuse history —
    the scan-resistance property LRU lacks.
    """

    name = "lru_k"

    def __init__(self, k: int = 2) -> None:
        super().__init__()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._history: dict[int, deque[float]] = {}

    def notify_access(self, node: RadixNode, now: float) -> None:
        history = self._history.setdefault(node.node_id, deque(maxlen=self.k))
        history.append(now)

    def _kth_access(self, candidate: EvictionCandidate) -> float:
        history = self._history.get(candidate.node.node_id)
        if history is not None and len(history) >= self.k:
            return history[0]
        return float("-inf")

    def _heap_key(self, candidate: EvictionCandidate) -> tuple:
        # Access times only move forward, so the key never decreases.
        return (self._kth_access(candidate),) + candidate.sort_key

    def notify_eviction(self, victim: EvictionCandidate) -> None:
        self._history.pop(victim.node.node_id, None)

    def reset(self) -> None:
        super().reset()
        self._history.clear()


class GDSEviction(_LazyHeapPolicy):
    """Plain greedy-dual-size with unit cost: ``H(n) = clock + 1 / size``.

    The textbook policy the paper's section 4.2 critique targets directly:
    its only value signal is the entry's byte size, which for a hybrid
    model's fixed-size recurrent checkpoints is unrelated to the compute a
    hit saves.  Included so ablations can quantify how badly the size proxy
    misprices long-prefix checkpoints.

    As with GDSF, the clock is a shared offset at selection time; both the
    list scan and the heap rank by the clock-free key.
    """

    name = "gds"

    def __init__(self) -> None:
        super().__init__()
        self._clock = 0.0

    def _priority(self, candidate: EvictionCandidate) -> float:
        return self._clock + 1.0 / max(1, candidate.freeable_bytes)

    def _heap_key(self, candidate: EvictionCandidate) -> tuple:
        return (1.0 / max(1, candidate.freeable_bytes),) + candidate.sort_key

    def notify_eviction(self, victim: EvictionCandidate) -> None:
        self._clock = self._priority(victim)

    def reset(self) -> None:
        super().reset()
        self._clock = 0.0


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
    """Average-rank normalization into (0, 1], tie-aware.

    Rank normalization makes the two utility terms scale-free: a node's
    recency score no longer depends on how long the serving process has
    been up, only on how it *compares* to the other candidates — the
    reading of the paper's "normalized ... by comparing all nodes'
    last-accessed timestamps and FLOP saved/byte".
    """
    n = len(values)
    if n == 1:
        return [1.0]
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


_POLICIES = {
    "lru": lambda alpha: LRUEviction(),
    "flop_aware": lambda alpha: FlopAwareEviction(alpha if alpha is not None else 1.0),
    "gdsf": lambda alpha: GDSFEviction(),
    "gds": lambda alpha: GDSEviction(),
    "lfu": lambda alpha: LFUEviction(),
    "lru_k": lambda alpha: LRUKEviction(),
    "random": lambda alpha: RandomEviction(),
}


def make_eviction_policy(name: str, alpha: float | None = None) -> EvictionPolicy:
    """Instantiate an eviction policy by name.

    Known names: ``lru``, ``flop_aware`` (uses ``alpha``), ``gdsf``,
    ``gds``, ``lfu``, ``lru_k``, ``random``.
    """
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown eviction policy {name!r}; known: {sorted(_POLICIES)}"
        ) from None
    return factory(alpha)
