"""Clairvoyant (Belady-style) eviction replay: an offline upper-bound yardstick.

Belady's MIN evicts the entry whose next use lies farthest in the future and
is optimal for unit-size, unit-cost caches.  Hybrid-model cache entries have
neither unit size nor unit cost, so farthest-next-use is a *heuristic* upper
bound here, not a provable optimum — but it is exactly the right yardstick
for the paper's online policies: it knows which checkpoints will actually be
reused, so any gap between an online policy and this replay is attributable
to prediction, not mechanics.

The replay drives a regular :class:`repro.core.cache.MarconiCache` (same
admission, same tree mechanics) with the eviction policy swapped for
:class:`ClairvoyantEviction`, which looks up the next yet-unserved request
whose input extends each candidate node's prefix.  :func:`victim_profile`
runs the same replay and records what each victim looked like: its ranks
under the FLOP-aware score's two terms, whether it is ever used again and
whether LRU would have picked it.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from repro.core.cache import MarconiCache
from repro.core.eviction import EvictionCandidate, EvictionPolicy, _rank_normalize
from repro.core.node import RadixNode
from repro.models.config import ModelConfig
from repro.workloads.trace import Trace

_NEVER = float("inf")


class ClairvoyantEviction(EvictionPolicy):
    """Farthest-next-use victim selection over a known request schedule.

    Parameters
    ----------
    schedule:
        The inputs of every request in service order.  ``cursor`` marks the
        first request that has not been served yet; only requests at or
        after the cursor count as future uses.
    """

    name = "clairvoyant"

    def __init__(self, schedule: list[np.ndarray]) -> None:
        self.schedule = [np.asarray(s, dtype=np.int32) for s in schedule]
        self.cursor = 0
        self._lengths = np.array([len(s) for s in self.schedule], dtype=np.int64)
        # A candidate node -> (its seq_len, the sorted indices of every
        # scheduled input that strictly extends its path), built on the
        # node's first lookup.  A node keeps its path while it lives (a split
        # goes in above it, a merge folds its parent into it) except that a
        # truncation shortens it, so the seq_len names the path.  Keyed
        # weakly by the node, not by its tokens: a path can carry a whole
        # session history, and the memo lives no longer than the tree's nodes.
        self._uses: weakref.WeakKeyDictionary[
            RadixNode, tuple[int, list[int]]
        ] = weakref.WeakKeyDictionary()

    def advance(self, cursor: int) -> None:
        """Mark requests before ``cursor`` as already served."""
        if not 0 <= cursor <= len(self.schedule):
            raise ValueError(
                f"cursor must be in [0, {len(self.schedule)}], got {cursor}"
            )
        self.cursor = cursor

    def _next_use(self, path: np.ndarray) -> float:
        """Index of the next scheduled request whose input extends ``path``.

        A checkpoint at prefix length ``p`` serves request ``r`` only when
        ``r``'s input strictly extends the prefix (at least the final input
        token must be prefilled to produce first-step logits), mirroring
        the cache's ``max_seq_len = len(tokens) - 1`` hit rule.
        """
        return self._first_at_cursor(self._uses_of(path))

    def _node_next_use(self, node: RadixNode) -> float:
        """:meth:`_next_use` of ``node``'s path.  The schedule is scanned
        once per node (and again after a truncation); a lookup is a dict get
        and a bisect from the cursor."""
        entry = self._uses.get(node)
        if entry is None or entry[0] != node.seq_len:
            entry = (node.seq_len, self._uses_of(node.path_tokens()))
            self._uses[node] = entry
        return self._first_at_cursor(entry[1])

    def _uses_of(self, path: np.ndarray) -> list[int]:
        """The sorted indices of every scheduled input that strictly extends
        ``path``: one scan of the schedule."""
        path = np.asarray(path, dtype=np.int32)
        n = len(path)
        schedule = self.schedule
        last = path.item(n - 1) if n else 0
        return [
            index
            for index in np.flatnonzero(self._lengths > n).tolist()
            # The last token rules out almost every non-match cheaply.
            if (not n or schedule[index].item(n - 1) == last)
            and np.array_equal(schedule[index][:n], path)
        ]

    def _first_at_cursor(self, uses: list[int]) -> float:
        at = bisect_left(uses, self.cursor)
        return float(uses[at]) if at < len(uses) else _NEVER

    def select_victim(self, candidates: list[EvictionCandidate]) -> EvictionCandidate:
        if not candidates:
            raise ValueError("no eviction candidates")
        scored = [
            (self._node_next_use(c.node), c.sort_key, c) for c in candidates
        ]
        # Farthest next use goes first; among the never-reused, evict the
        # least FLOP-efficient first so surviving dead weight is cheap.
        never = [(c.flop_efficiency, key, c) for use, key, c in scored if use == _NEVER]
        if never:
            return min(never, key=lambda item: (item[0], item[1]))[2]
        return max(scored, key=lambda item: (item[0],))[2]


@dataclass
class ClairvoyantResult:
    """Outcome of one clairvoyant replay."""

    token_hit_rate: float
    n_requests: int
    evictions: int
    hit_tokens: int
    input_tokens: int
    per_request_hits: list[int] = field(default_factory=list)


def clairvoyant_replay(
    model: ModelConfig,
    trace: Trace,
    capacity_bytes: int,
) -> ClairvoyantResult:
    """Replay ``trace`` through a Marconi cache evicting with future knowledge.

    Requests are served in nominal order (zero service latency), matching
    the engine-less replays used by the static-alpha oracle, so results are
    directly comparable with :func:`repro.baselines.oracle.tune_static_alpha`.
    """
    requests = _nominal_requests(trace)
    policy = ClairvoyantEviction([input_tokens for _, _, _, input_tokens, _ in requests])
    cache, per_request_hits = _replay(model, requests, capacity_bytes, policy)
    stats = cache.stats
    return ClairvoyantResult(
        token_hit_rate=stats.token_hit_rate,
        n_requests=len(requests),
        evictions=stats.evictions,
        hit_tokens=stats.hit_tokens,
        input_tokens=stats.input_tokens,
        per_request_hits=per_request_hits,
    )


def _nominal_requests(trace: Trace) -> list:
    requests = list(trace.iter_requests_nominal())
    if not requests:
        raise ValueError("cannot replay an empty trace")
    return requests


def _replay(
    model: ModelConfig,
    requests: list,
    capacity_bytes: int,
    policy: ClairvoyantEviction,
) -> tuple[MarconiCache, list[int]]:
    """Serve ``requests`` in order through a cache that evicts with ``policy``."""
    cache = MarconiCache(model, capacity_bytes, eviction="lru")
    cache.policy = policy
    policy.bind_index(cache.eviction_index)  # and unbind the LRU heap's feed
    per_request_hits: list[int] = []
    for index, (now, _, _, input_tokens, full_tokens) in enumerate(requests):
        # The request being served is no longer a *future* use of anything.
        policy.advance(index + 1)
        with cache.begin(input_tokens, now) as session:
            per_request_hits.append(session.hit_tokens)
            session.commit(full_tokens, now)
    return cache, per_request_hits


@dataclass(frozen=True)
class Victim:
    """What one clairvoyant victim looked like when it was chosen.

    Ranks are :func:`~repro.core.eviction._rank_normalize` over the
    candidate set, the values the FLOP-aware score adds: near 0 is the
    oldest / least FLOP-efficient candidate, 1 the newest / most efficient.
    """

    recency_rank: float
    efficiency_rank: float
    #: Requests from the one being served to the next that extends the
    #: victim's path; ``inf`` when none does.
    reuse_distance: float
    #: Is the victim the candidate LRU (SGLang+) would have evicted?
    same_as_lru: bool
    length: int
    lru_length: int
    #: Nodes from the root (a child of the root is at depth 1).
    depth: int
    is_leaf: bool
    #: Round, within its session, of the request that last used the victim.
    session_round: int
    #: Seconds since that use, over the workload's mean think time.
    idle_over_think: float

    @property
    def never_reused(self) -> bool:
        return self.reuse_distance == _NEVER


class _ProfiledClairvoyant(ClairvoyantEviction):
    """:class:`ClairvoyantEviction` that records each victim it picks."""

    def __init__(self, requests: list, mean_think_s: float) -> None:
        super().__init__([input_tokens for _, _, _, input_tokens, _ in requests])
        self._times = [now for now, _, _, _, _ in requests]
        # A state's last_access is the nominal time of the request that
        # last used it; nominal times are ordered, so a later round sharing
        # a time overwrites an earlier one.
        self._round_at = {now: k for now, _, k, _, _ in requests}
        self._mean_think_s = mean_think_s
        self.victims: list[Victim] = []

    def select_victim(self, candidates: list[EvictionCandidate]) -> EvictionCandidate:
        victim = super().select_victim(candidates)
        at = next(i for i, c in enumerate(candidates) if c is victim)
        lru = min(candidates, key=lambda c: c.sort_key)
        depth, node = 0, victim.node
        while node.parent is not None:
            depth, node = depth + 1, node.parent
        serving = self.cursor - 1
        self.victims.append(
            Victim(
                recency_rank=_rank_normalize([c.last_access for c in candidates])[at],
                efficiency_rank=_rank_normalize([c.flop_efficiency for c in candidates])[at],
                reuse_distance=self._node_next_use(victim.node) - serving,
                same_as_lru=lru is victim,
                length=victim.node.seq_len,
                lru_length=lru.node.seq_len,
                depth=depth,
                is_leaf=victim.is_leaf,
                session_round=self._round_at.get(victim.last_access, -1),
                idle_over_think=(self._times[serving] - victim.last_access)
                / self._mean_think_s,
            )
        )
        return victim


def victim_profile(
    model: ModelConfig,
    trace: Trace,
    capacity_bytes: int,
    mean_think_s: float,
) -> list[Victim]:
    """Every victim of :func:`clairvoyant_replay` on ``trace``, in order.

    The replay's decisions are :func:`clairvoyant_replay`'s; recording them
    reads the candidate set and changes nothing.
    """
    requests = _nominal_requests(trace)
    policy = _ProfiledClairvoyant(requests, mean_think_s)
    _replay(model, requests, capacity_bytes, policy)
    return policy.victims
