"""Sharded prefix directory with bounded staleness for fleet-scale routing.

:class:`~repro.cluster.directory.PrefixDirectory` is a single, perfectly
synchronous oracle: every replica tree event lands in one index before the
next routing decision reads it.  That abstraction cannot model — or
survive — a fleet of hundreds of replicas behind many concurrent routers,
where directory state is necessarily partitioned and replicated with a
delay.  :class:`ShardedPrefixDirectory` is the production-shaped variant:

* **Sharding by prefix region.**  The token space is partitioned into
  regions keyed by the crc32 of the first ``region_tokens`` tokens' bytes
  (:meth:`~repro.core.tokens.TokenSeq.prefix_hash` for interned handles,
  which reads the bytes the handle already caches): O(``region_tokens``)
  per lookup, whatever the request length.  Regions map to shards through
  a consistent-hash ring (virtual nodes), so shard loss remaps only the
  dead shard's regions.

* **Exact single-shard lookups.**  Every shard stores the regions it owns
  at full depth and *every other* region truncated to ``region_tokens``.
  Any query/entry pair agreeing beyond ``region_tokens`` tokens shares a
  region by construction (their first ``region_tokens`` tokens are
  equal), so the owner shard answers deep matches exactly, while matches
  shorter than ``region_tokens`` are answered exactly from the truncated
  replicas present on all shards.  With ``propagation_delay=0`` the
  sharded directory is therefore *lookup- and decision-identical* to the
  oracle for any shard count — the invariant the differential suite in
  ``tests/test_sharded_directory.py`` pins.  Each update carries the
  depth it starts changing the index at: one that starts past what a
  non-owner stores is applied on the ring owner alone (inline), or dropped
  untouched by the others (queued): ``ShardedPrefixDirectory._past_region``.

* **Bounded staleness.**  With ``propagation_delay > 0`` replica tree
  events are enqueued per shard and applied only once the simulation
  clock passes ``enqueue_time + propagation_delay``, in batches of at
  most ``gossip_budget`` updates per flush.  Flushes ride the kernel's
  virtual clock as ``EventKind.DIRECTORY_SYNC`` events via a pluggable
  transport (:meth:`ShardedPrefixDirectory.connect_transport`); outside a
  kernel, :class:`ManualGossipTransport` or :meth:`ShardedPrefixDirectory.
  pump` drive time by hand.  Stale lookups may report coverage a replica
  already evicted (routers fall back to recompute; the kernel validates
  transfer sources) or miss coverage that exists (a cold route, never a
  correctness issue).

* **Fault injection.**  :meth:`fail_shard` kills a shard: its state is
  lost, its regions remap across the ring, and anti-entropy resyncs
  rebuild the remapped regions on the surviving shards after one
  propagation delay.  :meth:`drop_gossip` discards a shard's next flush
  batch(es); each drop schedules a recovery resync, so convergence is
  delayed, never lost.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

import numpy as np
from zlib import crc32

from repro.core.tokens import TokenSeq, canonical_token_array
from repro.cluster.directory import (
    _CKPT_CLEAR,
    _CKPT_SET,
    _MARK,
    DirectoryLookup,
    PrefixIndex,
    ReplicaFront,
    _iter_tree_paths,
)

# Replica-wide update kinds, after the path-op kinds of
# :mod:`repro.cluster.directory` (ints: applied in the gossip hot loop).
_INVALIDATE = 5
_RESYNC = 6

_EMPTY_KEY = crc32(b"")

#: Points each shard contributes to the consistent-hash ring.
_RING_POINTS_PER_SHARD = 16


@dataclass(slots=True, eq=False)
class DirectoryUpdate:
    """One replica tree event, serialized for gossip.

    ``tokens`` is the full root path the event names and ``data`` its raw
    bytes (``None`` for replica-wide ops; both read-only, because a queued
    update outlives the event); ``depth`` is where the op starts changing
    the index (a mark's parent depth, a clear's keep-depth, a checkpoint's
    exact depth); ``rkey`` is the event's region key (hash of the first
    ``region_tokens`` path tokens), computed once at ingest; ``snapshot``
    carries a resync's ``(path, path bytes, has_ckpt)`` node list,
    captured at event time so delayed application replays the state the
    event saw, not the state at apply time.
    """

    kind: int
    replica: int
    tokens: Optional[np.ndarray] = None
    data: Optional[bytes] = None
    depth: int = 0
    rkey: int = 0
    snapshot: Optional[list] = None


class _HashRing:
    """Consistent-hash ring mapping region keys to live shard indices.

    Each shard contributes :data:`_RING_POINTS_PER_SHARD` points; removal
    (shard loss) deletes only that shard's points, so surviving
    assignments are untouched — the property that keeps recovery traffic
    proportional to the lost shard's share of the key space.
    """

    __slots__ = ("_points", "_owners")

    def __init__(self, shards: int) -> None:
        pairs: list[tuple[int, int]] = []
        for shard in range(shards):
            for v in range(_RING_POINTS_PER_SHARD):
                pairs.append((crc32(b"shard:%d#%d" % (shard, v)), shard))
        pairs.sort()
        self._points = [point for point, _ in pairs]
        self._owners = [owner for _, owner in pairs]

    def remove(self, shard: int) -> None:
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != shard
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    def lookup(self, key: int) -> Optional[int]:
        if not self._points:
            return None
        index = bisect.bisect_right(self._points, key)
        if index == len(self._points):
            index = 0
        return self._owners[index]


class ManualGossipTransport:
    """A hand-cranked clock + callback queue for transport-mode tests.

    Mirrors the kernel transport's surface (``now()`` / ``schedule``);
    :meth:`run_until` advances time and fires scheduled flushes in
    timestamp order, so staleness behaviour can be exercised without a
    simulation kernel.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self._serial = 0
        self._queue: list[tuple[float, int, Any]] = []

    def now(self) -> float:
        return self._now

    def schedule(self, time: float, callback: Any) -> None:
        self._serial += 1
        bisect.insort(self._queue, (max(time, self._now), self._serial, callback))

    def run_until(self, time: float) -> None:
        """Advance to ``time``, firing every callback due on the way."""
        while self._queue and self._queue[0][0] <= time:
            due, _, callback = self._queue.pop(0)
            self._now = max(self._now, due)
            callback(self._now)
        self._now = max(self._now, time)


@dataclass(slots=True)
class _Shard:
    """One shard: a :class:`PrefixIndex` as the region store, its gossip
    queue, and the counters of what reached it."""

    index: int
    directory: PrefixIndex = field(default_factory=PrefixIndex)
    #: FIFO of (ready_time, enqueue_time, update); ready times are
    #: monotone because enqueue times are (the clock never reverses).
    pending: deque[tuple[float, float, DirectoryUpdate]] = field(default_factory=deque)
    alive: bool = True
    flush_scheduled: bool = False
    drop_armed: int = 0
    applied: int = 0
    flushes: int = 0
    dropped_batches: int = 0
    dropped_updates: int = 0
    peak_pending: int = 0
    lookups: int = 0
    resyncs: int = 0
    invalidations: int = 0


class ShardedPrefixDirectory(ReplicaFront):
    """Drop-in :class:`~repro.cluster.directory.PrefixDirectory` replacement
    with sharding and bounded staleness (see the module docstring for the
    model): the same replica front over a ring of per-shard indexes.

    ``propagation_delay=0`` with default gossip settings applies updates
    synchronously — the conformance mode the differential suite pins
    against the oracle.  ``gossip_budget`` caps updates applied per flush;
    ``gossip_interval`` (default: the propagation delay) spaces the
    flushes a budget-throttled shard retries at.
    """

    def __init__(
        self,
        n_shards: int = 4,
        region_tokens: int = 32,
        propagation_delay: float = 0.0,
        gossip_budget: Optional[int] = None,
        gossip_interval: Optional[float] = None,
    ) -> None:
        super().__init__()
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if region_tokens < 1:
            raise ValueError(f"region_tokens must be >= 1, got {region_tokens}")
        if propagation_delay < 0:
            raise ValueError(
                f"propagation_delay must be non-negative, got {propagation_delay}"
            )
        if gossip_budget is not None and gossip_budget < 1:
            raise ValueError(f"gossip_budget must be >= 1, got {gossip_budget}")
        self.n_shards = n_shards
        self.region_tokens = region_tokens
        self.propagation_delay = propagation_delay
        self.gossip_budget = gossip_budget
        self._synchronous = (
            propagation_delay == 0 and gossip_budget is None and gossip_interval is None
        )
        if gossip_interval is None:
            gossip_interval = propagation_delay
        if not self._synchronous and gossip_interval <= 0:
            raise ValueError(
                "gossip_interval must be positive when gossip is asynchronous"
            )
        self.gossip_interval = gossip_interval
        self.shards = [_Shard(i) for i in range(n_shards)]
        self._ring = _HashRing(n_shards)
        self._transport: Optional[Any] = None
        self._time = 0.0
        self.shard_losses = 0
        self.updates_enqueued = 0
        self.updates_dropped = 0
        self._lookup_ages: list[float] = []

    # ------------------------------------------------------------------
    # Clock / transport
    # ------------------------------------------------------------------
    def _now(self) -> float:
        if self._transport is not None:
            return self._transport.now()
        return self._time

    def advance_to(self, time: float) -> None:
        """Move the standalone clock forward (transport-less use only)."""
        self._time = max(self._time, time)

    def connect_transport(self, transport: Optional[Any]) -> None:
        """Attach the flush scheduler (kernel event queue or manual).

        Replaces any previous transport: stale flush reservations pointed
        at the old transport's (now dead) queue, so they are cleared and
        shards with pending updates reschedule on the new one.
        """
        self._transport = transport
        for shard in self.shards:
            shard.flush_scheduled = False
            if transport is not None and shard.alive and shard.pending:
                self._schedule_flush(shard, shard.pending[0][0])

    def _schedule_flush(self, shard: _Shard, ready: float) -> None:
        if self._transport is None or shard.flush_scheduled:
            return
        shard.flush_scheduled = True
        when = max(ready, self._now())
        self._transport.schedule(
            when, lambda now, shard=shard: self._flush_shard(shard, now)
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _region_key(self, tokens: Any) -> int:
        k = len(tokens)
        if k == 0:
            return _EMPTY_KEY
        if k > self.region_tokens:
            k = self.region_tokens
        if isinstance(tokens, TokenSeq):
            return tokens.prefix_hash(k)
        arr = canonical_token_array(tokens)
        return crc32(arr[:k].tobytes())

    def shard_for(self, tokens: Any) -> Optional[int]:
        """The live shard owning ``tokens``' region (None: all shards lost)."""
        return self._ring.lookup(self._region_key(tokens))

    def lookup(self, tokens: Any, limit: Optional[int] = None) -> DirectoryLookup:
        """Single-shard walk on the region owner (exact at zero delay)."""
        self.stats.lookups += 1
        if not isinstance(tokens, TokenSeq):
            # Once, for the region key and the owner's byte-compared walk.
            tokens = canonical_token_array(tokens)
        owner = self._ring.lookup(self._region_key(tokens))
        if owner is None:
            return DirectoryLookup()
        shard = self.shards[owner]
        if not self._synchronous:
            # Synchronous gossip applies inline, so every age would be 0.0.
            age = self._now() - shard.pending[0][1] if shard.pending else 0.0
            self._lookup_ages.append(max(0.0, age))
        shard.lookups += 1
        return shard.directory.lookup(tokens, limit)

    # ------------------------------------------------------------------
    # Ingest / gossip
    # ------------------------------------------------------------------
    def _ingest_path_op(
        self, kind: int, replica: int, tokens: np.ndarray, data: bytes, depth: int
    ) -> None:
        rkey = crc32(data[: 4 * self.region_tokens])
        self._ingest(DirectoryUpdate(kind, replica, tokens, data, depth, rkey))

    @staticmethod
    def _resync_update(replica: int, tree: Any) -> DirectoryUpdate:
        """One resync update carrying ``tree``'s every (path, path bytes,
        checkpointed) as of *now* (empty for a tree-less cache)."""
        return DirectoryUpdate(_RESYNC, replica, snapshot=list(_iter_tree_paths(tree)))

    def _ingest_resync(self, replica: int, tree: Any) -> None:
        """Snapshot ``tree`` *now* and gossip it as one resync update."""
        self.stats.resyncs += 1
        self._ingest(self._resync_update(replica, tree))

    def invalidate(self, replica: int) -> None:
        """Drop every entry of ``replica`` (failure/removal) — gossiped
        like any other update, so stale shards keep answering with the
        dead replica until the invalidation propagates (the race the
        kernel's dead-target fallbacks absorb)."""
        self.stats.invalidations += 1
        self._ingest(DirectoryUpdate(_INVALIDATE, replica))

    def _ingest(self, update: DirectoryUpdate) -> None:
        self.stats.events += 1
        if self._synchronous:
            owner = self._ring.lookup(update.rkey)
            owner_only = self._past_region(update)  # no one else stores it
            for shard in self.shards:
                if shard.alive:
                    if shard.index == owner or not owner_only:
                        self._apply(shard, update, owner)
                    shard.applied += 1  # offered or not: staleness() is per update
            return
        now = self._now()
        ready = now + self.propagation_delay
        for shard in self.shards:
            if shard.alive:
                self._enqueue(shard, update, now, ready)

    def _enqueue(
        self, shard: _Shard, update: DirectoryUpdate, now: float, ready: float
    ) -> None:
        shard.pending.append((ready, now, update))
        self.updates_enqueued += 1
        if len(shard.pending) > shard.peak_pending:
            shard.peak_pending = len(shard.pending)
        self._schedule_flush(shard, ready)

    @staticmethod
    def _take_due(
        shard: _Shard, now: float, budget: Optional[int] = None
    ) -> list[DirectoryUpdate]:
        """Pop ``shard``'s queued updates that are ready by ``now``, oldest
        first, ``budget`` of them at most."""
        pending, due = shard.pending, []
        while pending and pending[0][0] <= now and len(due) != budget:
            due.append(pending.popleft()[2])
        return due

    def _apply_due(self, shard: _Shard, now: float, budget: Optional[int] = None) -> int:
        due = self._take_due(shard, now, budget)
        for update in due:
            self._apply(shard, update, self._ring.lookup(update.rkey))
        shard.applied += len(due)
        return len(due)

    def _flush_shard(self, shard: _Shard, now: float) -> None:
        """Apply one gossip batch (transport callback)."""
        shard.flush_scheduled = False
        if not shard.alive:
            shard.pending.clear()
            return
        if shard.drop_armed > 0:
            # The batch is lost in transit: discard everything that would
            # have applied now and schedule an anti-entropy resync.
            shard.drop_armed -= 1
            shard.dropped_batches += 1
            dropped = self._take_due(shard, now)
            shard.dropped_updates += len(dropped)
            self.updates_dropped += len(dropped)
            self._recover(shard, {update.replica for update in dropped}, now)
        else:
            shard.flushes += 1
            self._apply_due(shard, now, self.gossip_budget)
        if shard.pending:
            head = shard.pending[0][0]
            self._schedule_flush(shard, head if head > now else now + self.gossip_interval)

    def _recover(self, shard: _Shard, replicas: set[int], now: float) -> None:
        """Re-announce ``replicas``' full state to ``shard`` (anti-entropy
        after a dropped batch or a shard loss remap)."""
        ready = now + self.propagation_delay
        for replica in sorted(replicas):
            if replica not in self._tracked:
                continue
            tree = getattr(self._caches.get(replica), "tree", None)
            update = self._resync_update(replica, tree)
            if self._synchronous:
                self._apply(shard, update, None)  # a resync resolves per path
                shard.applied += 1
            else:
                self._enqueue(shard, update, now, ready)

    def pump(self, upto: Optional[float] = None) -> int:
        """Apply every update eligible by ``upto`` (default: now) on every
        shard, ignoring the gossip budget — the transport-less test hook.
        Returns the number of updates applied."""
        if upto is not None:
            self.advance_to(upto)
        now = self._now()
        return sum(self._apply_due(shard, now) for shard in self.shards if shard.alive)

    # ------------------------------------------------------------------
    # Op application (owner-full / foreign-truncated)
    # ------------------------------------------------------------------
    def _past_region(self, update: DirectoryUpdate) -> bool:
        """The owner-only rule: a path op that starts changing the index at
        or past ``region_tokens`` (past it, for a checkpoint, which sits
        *at* its depth) changes nothing a non-owner stores.  Inline ingest
        asks once per update; a queued update is asked about per shard."""
        kind = update.kind
        at_depth = kind == _CKPT_SET or kind == _CKPT_CLEAR
        return kind < _INVALIDATE and update.depth >= self.region_tokens + at_depth

    def _apply(
        self, shard: _Shard, update: DirectoryUpdate, owner: Optional[int]
    ) -> None:
        """Apply ``update`` on ``shard``; ``owner`` is the ring's owner of
        the update's region as of now (read once per update when every
        shard applies it together, per shard when each flushes on its own).

        A shard stores its own regions whole and every other region's
        first ``region_tokens`` tokens, so a non-owner drops an op
        :meth:`_past_region` untouched: the tokens before it are already
        covered, or a resync that re-announces them is queued.
        """
        d = shard.directory
        r = update.replica
        kind = update.kind
        region = self.region_tokens
        if kind == _INVALIDATE:
            d.clear_replica(r)
            shard.invalidations += 1
        elif kind == _RESYNC:
            d.clear_replica(r)
            shard.resyncs += 1
            for path, data, has_ckpt in update.snapshot:
                depth = len(path)
                if (
                    depth <= region
                    or self._ring.lookup(crc32(data[: 4 * region])) == shard.index
                ):
                    d.mark(r, path, data, depth, ckpt=has_ckpt)
                else:
                    d.mark(r, path, data, region)
        else:
            tokens, data, depth = update.tokens, update.data, update.depth
            if owner != shard.index:
                if self._past_region(update):
                    return
                if kind == _MARK and len(tokens) > region:
                    d.mark(r, tokens, data, region)
                    return
            # The owner; or an op shallow enough to apply whole anywhere (a
            # clear's walk self-limits to the shard's truncated copy).
            d.apply(kind, r, tokens, data, depth)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def fail_shard(self, index: int) -> None:
        """Kill shard ``index``: its state and queue are lost, its regions
        remap across the ring, and the remapped owners rebuild from
        anti-entropy resyncs after one propagation delay."""
        if not 0 <= index < self.n_shards:
            raise ValueError(f"no shard {index} in a {self.n_shards}-shard directory")
        shard = self.shards[index]
        if not shard.alive:
            return
        shard.alive = False
        shard.pending.clear()
        shard.flush_scheduled = False
        shard.directory = PrefixIndex()
        self._ring.remove(index)
        self.shard_losses += 1
        now = self._now()
        for survivor in self.shards:
            if survivor.alive:
                self._recover(survivor, set(self._tracked), now)

    def drop_gossip(self, shard: Optional[int] = None, batches: int = 1) -> None:
        """Arm the next ``batches`` flushes of ``shard`` (or of every
        shard) to be dropped in transit; recovery resyncs follow."""
        if batches < 1:
            raise ValueError(f"batches must be >= 1, got {batches}")
        targets = self.shards if shard is None else [self.shards[shard]]
        for s in targets:
            s.drop_armed += batches

    @property
    def live_shards(self) -> int:
        return sum(1 for shard in self.shards if shard.alive)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _age_percentile(self, q: float) -> float:
        ages = self._lookup_ages
        if not ages:
            return 0.0
        return float(np.percentile(np.asarray(ages), q))

    def staleness(self) -> dict:
        """Aggregate + per-shard staleness snapshot (exported with cluster
        results; superset of the oracle's counter names that still apply)."""
        per_shard = [
            dict(
                asdict(shard.directory.stats),
                shard=shard.index,
                alive=shard.alive,
                lookups=shard.lookups,
                resyncs=shard.resyncs,
                invalidations=shard.invalidations,
                applied_updates=shard.applied,
                pending_updates=len(shard.pending),
                dropped_updates=shard.dropped_updates,
                flushes=shard.flushes,
                dropped_batches=shard.dropped_batches,
                peak_pending=shard.peak_pending,
            )
            for shard in self.shards
        ]
        return {
            "backend": "sharded",
            "n_shards": self.n_shards,
            "live_shards": self.live_shards,
            "region_tokens": self.region_tokens,
            "propagation_delay": self.propagation_delay,
            "gossip_budget": self.gossip_budget,
            "gossip_interval": self.gossip_interval,
            **asdict(self.stats),
            "shard_losses": self.shard_losses,
            "updates_enqueued": self.updates_enqueued,
            "updates_applied": sum(shard.applied for shard in self.shards),
            "updates_pending": sum(len(shard.pending) for shard in self.shards),
            "updates_dropped": self.updates_dropped,
            "n_nodes": sum(
                shard.directory.stats.n_nodes for shard in self.shards if shard.alive
            ),
            "lookup_age_p50": self._age_percentile(50),
            "lookup_age_p95": self._age_percentile(95),
            "lookup_age_max": max(self._lookup_ages, default=0.0),
            "per_shard": per_shard,
        }

    def check_integrity(self) -> None:
        """Per-shard structural invariants plus the sharding contract the
        non-owner skip in :meth:`_apply` relies on: a shard stores nothing
        — cover or checkpoint — past ``region_tokens`` outside the regions
        the ring assigns to it."""
        cut = 4 * self.region_tokens
        for shard in self.shards:
            if not shard.alive:
                assert not shard.pending, "dead shard with queued gossip"
                continue
            shard.directory.check_integrity()
            # Depth-first with the region-defining head of each path.
            stack = [(node, b"") for node in shard.directory.root.children.values()]
            while stack:
                node, head = stack.pop()
                if len(head) < cut:
                    head += node.data[: cut - len(head)]
                if node.end > self.region_tokens:
                    assert self._ring.lookup(crc32(head)) == shard.index, (
                        "deep entry stored on a non-owner shard"
                    )
                stack.extend((child, head) for child in node.children.values())
