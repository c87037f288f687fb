"""Incrementally maintained eviction-candidate index.

The seed implementation of :meth:`MarconiCache._ensure_free` rebuilt the
candidate set with a full ``tree.iter_nodes()`` DFS — plus a FLOP-efficiency
recomputation per candidate — on *every* iteration of the eviction loop,
making sustained cache pressure O(n²·log n).  This module replaces the
rescan with a :class:`~repro.core.radix_tree.TreeObserver` that tracks the
evictable set — nodes with at most one child, unpinned, and with positive
freeable bytes — as the tree changes.

Maintenance is *lazy*: every observer callback only marks the touched node
dirty (an O(1) dict write), and dirty nodes are re-evaluated in one batch
the next time anything reads the index (``candidates()``, ``get``,
``len``, ``node_visits``).  Readers therefore always see the
eagerly-maintained state, while write-heavy churn between selections —
pin/unpin round-trips of a request path, multiple touches of the same hot
node, transient structure during a split — collapses to at most one
re-evaluation per node per read.  A node whose evaluation key (freeable
bytes, recency, shape) round-trips back unchanged between two reads keeps
its candidate object and leaves the cached snapshot list standing.

Cached per-candidate values (``freeable_bytes``, ``flop_efficiency``, the
precomputed ``sort_key``) are invalidated by *rebuilding the candidate
object*, so policies can use object identity as a staleness check.

A rank-scoring policy (:class:`~repro.core.eviction.FlopAwareEviction`)
additionally reads :meth:`EvictionIndex.normalized_ranks`: every live
candidate's two scored values are kept as two array rows
(:class:`_RankColumns`) from the first such read on, so a selection is a
few array expressions, not two Python sorts.  An index nobody asks for
ranks allocates and maintains nothing.

An index built on an empty tree *sleeps*: it neither observes the tree
nor scans it until something first reads it, so a cache whose capacity
never binds pays nothing here.  Its first read seeds it in the order an
index registered from the start would have reached (see
:meth:`EvictionIndex._wake`).

``node_visits`` counts candidacy evaluations — the index-side analogue of
the seed's per-eviction full-tree node visits; ``bench_e2e`` reports it as
``core.eviction_index.node_visits``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, Optional

import numpy as np

from repro.core.eviction import EvictionCandidate
from repro.core.node import RadixNode
from repro.core.radix_tree import RadixTree, TreeObserver

FreeableFn = Callable[[RadixNode], int]
EfficiencyFn = Callable[[RadixNode, int], float]

#: ``EvictionIndex._dirty`` until the index is first read: truthy, so the
#: first query's flush meets it and wakes the index.
_ASLEEP = object()


class _RankColumns:
    """The two scored columns of every live candidate, ranked when read.

    Row 0 of ``v`` is ``last_access``, row 1 ``flop_efficiency``; a
    candidate's ``slot`` is its column in ``v`` and its position in
    ``candidates``, so one entering, changing or leaving is two scalar
    writes through ``flat``, ``v``'s buffer as one row (row 1 starts at
    ``capacity``).  :meth:`normalized` evaluates the IEEE expressions of
    :func:`~repro.core.eviction._rank_normalize` on the same whole
    numbers, so it is bit-identical to the from-scratch definition.
    """

    __slots__ = ("candidates", "v", "flat", "capacity")

    def __init__(self, candidates: Iterable[EvictionCandidate]) -> None:
        self.candidates = live = list(candidates)
        n = len(live)
        self._allocate(2 * n)
        for slot, candidate in enumerate(live):
            candidate.slot = slot
        self.v[0, :n] = [c.last_access for c in live]
        self.v[1, :n] = [c.flop_efficiency for c in live]

    def _allocate(self, capacity: int) -> None:
        self.v = np.empty((2, capacity))
        self.flat = self.v.reshape(-1)  # a view: v is C-contiguous
        self.capacity = capacity

    def normalized(self) -> np.ndarray:
        """``_rank_normalize`` of both columns, shape ``(2, n)``, slot order.

        One sort per row, the two rows laid end to end as ``2n`` sorted
        positions.  A tie group is a run between two value changes, forced
        at 0, ``n`` and ``2n`` so no run spans the rows; the run at sorted
        positions ``lo .. hi - 1`` (``_rank_normalize``'s ``i`` and ``j``)
        ranks ``(lo + hi + 1) / (2n)``, the same double as the definition's
        ``((i + j) / 2 + 1) / n``: the halving is exact, ``2n`` is exact,
        and each side rounds once.
        """
        n = len(self.candidates)
        capacity = self.capacity
        order = self.v[:, :n].argsort(axis=1)
        order[1] += capacity  # indices into flat, row 1 past row 0's buffer
        flat = order.ravel()
        ordered = self.flat[flat]
        edge = np.empty(2 * n + 1, dtype=bool)
        edge[0] = edge[2 * n] = True
        np.not_equal(ordered[1:], ordered[:-1], out=edge[1 : 2 * n])
        edge[n] = True  # row 0's largest and row 1's smallest never tie
        bounds = edge.nonzero()[0]
        lo, hi = bounds[:-1], bounds[1:]
        total = lo + hi + 1
        total[edge[:n].sum() :] -= 2 * n
        out = np.empty((2, capacity))
        out.reshape(-1)[flat] = (total / (2.0 * n)).repeat(hi - lo)
        return out[:, :n]

    def put(
        self, candidate: EvictionCandidate, old: Optional[EvictionCandidate]
    ) -> None:
        """Add ``candidate``, or let it take over the slot of ``old``."""
        live = self.candidates
        if old is None:
            slot = candidate.slot = len(live)
            if slot == self.capacity:
                kept = self.v
                self._allocate(2 * slot + 2)
                self.v[:, :slot] = kept
            live.append(candidate)
        else:
            slot = candidate.slot = old.slot
            live[slot] = candidate
        flat = self.flat
        flat[slot] = candidate.last_access
        flat[self.capacity + slot] = candidate.flop_efficiency

    def remove(self, old: EvictionCandidate) -> None:
        """Drop ``old``; the last slot moves into the hole it leaves."""
        live = self.candidates
        last = live.pop()
        if last is not old:
            slot = last.slot = old.slot
            live[slot] = last
            flat = self.flat
            flat[slot] = last.last_access
            flat[self.capacity + slot] = last.flop_efficiency


class EvictionIndex(TreeObserver):
    """The maintained evictable set of one radix tree.

    Parameters
    ----------
    tree:
        The tree to observe.  The index registers itself as an observer and
        seeds the candidate set with one full scan (the only full scan it
        ever performs) -- at once for a tree that holds nodes, at the first
        query for an empty one (see :meth:`_wake`).
    freeable_fn:
        ``node -> bytes`` the cache would reclaim by evicting the node (the
        full entry for a leaf, checkpoint-only for a single-child node).
    efficiency_fn:
        ``(node, freeable_bytes) -> float`` FLOP efficiency of the node as
        an eviction candidate.
    """

    def __init__(
        self,
        tree: RadixTree,
        freeable_fn: FreeableFn,
        efficiency_fn: EfficiencyFn,
    ) -> None:
        self._tree = tree
        self._freeable_fn = freeable_fn
        self._efficiency_fn = efficiency_fn
        self._entries: dict[int, EvictionCandidate] = {}
        # (freeable, last_access, is_leaf, seq_len, parent_seq_len) of the
        # last evaluation; when unchanged, the cached candidate stands.
        self._eval_keys: dict[int, tuple] = {}
        # Nodes whose state may have changed since the last read; flushed
        # (re-evaluated once each) before the index answers anything.
        # _ASLEEP until the first query when the tree starts empty.
        self._dirty: dict[int, RadixNode] = _ASLEEP  # type: ignore[assignment]
        self._snapshot: Optional[list[EvictionCandidate]] = None
        # Kept from the first normalized_ranks() read on; None until then,
        # and again after drop_ranks() or rebuild().
        self._ranks: Optional[_RankColumns] = None
        self._node_visits = 0
        self.on_candidate_changed: Optional[Callable[[EvictionCandidate], None]] = None
        if tree.root.children:
            self.rebuild()

    @property
    def awake(self) -> bool:
        """Whether the index observes its tree yet (reading it wakes it)."""
        return self._dirty is not _ASLEEP

    # ------------------------------------------------------------------
    # Queries (each settles pending dirty marks first)
    # ------------------------------------------------------------------
    @property
    def node_visits(self) -> int:
        """Total candidacy evaluations performed (post-flush)."""
        if self._dirty:
            self._flush()
        return self._node_visits

    def __len__(self) -> int:
        if self._dirty:
            self._flush()
        return len(self._entries)

    def get(self, node_id: int) -> Optional[EvictionCandidate]:
        """Current candidate for ``node_id``, or None when not evictable."""
        if self._dirty:
            self._flush()
        return self._entries.get(node_id)

    def candidates(self) -> list[EvictionCandidate]:
        """Snapshot list of all current candidates (cached until one changes)."""
        if self._dirty:
            self._flush()
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = list(self._entries.values())
        return snapshot

    def normalized_ranks(self) -> tuple[list[EvictionCandidate], np.ndarray]:
        """The candidates in slot order and their rank-normalized columns.

        Row 0 of the ``(2, n)`` array is ``_rank_normalize`` of the
        candidates' ``last_access``, row 1 of their ``flop_efficiency``,
        exactly.  The list is live state: read it, do not keep or edit it.
        """
        if self._dirty:
            self._flush()
        ranks = self._ranks
        if ranks is None:
            ranks = self._ranks = _RankColumns(self._entries.values())
        return ranks.candidates, ranks.normalized()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def drop_ranks(self) -> None:
        """Stop maintaining rank columns until someone reads them again."""
        self._ranks = None

    def rebuild(self) -> None:
        """Re-seed the candidate set with one full tree scan."""
        if self._dirty is _ASLEEP:
            self._tree.add_observer(self)
        self._entries.clear()
        self._eval_keys.clear()
        self._snapshot = None
        self._ranks = None  # re-seeded by the next normalized_ranks() read
        self._dirty = {node.node_id: node for node in self._tree.iter_nodes()}
        self._flush()

    def _flush(self) -> None:
        """Re-evaluate every dirty node's candidacy once, in mark order.

        Runs a handful of times per eviction, hence the hoisted lookups.
        """
        dirty = self._dirty
        if dirty is _ASLEEP:
            self._wake()
            return
        self._dirty = {}
        entries = self._entries
        eval_keys = self._eval_keys
        freeable_fn = self._freeable_fn
        efficiency_fn = self._efficiency_fn
        ranks = self._ranks
        visits = 0
        for node in dirty.values():
            visits += 1
            node_id = node.node_id
            children = node.children
            # Structural candidacy (section 4.3): attached, unpinned, at most
            # one child.  A detached node (parent None) is dropped here too.
            if node.parent is None or node.pin_count > 0 or len(children) > 1:
                freeable = 0
            else:
                freeable = freeable_fn(node)
            if freeable <= 0:
                old = entries.pop(node_id, None)
                if old is not None:
                    del eval_keys[node_id]
                    self._snapshot = None
                    if ranks is not None:
                        ranks.remove(old)
                continue
            last_access = node.last_access
            eval_key = (
                freeable,
                last_access,
                not children,
                node.seq_len,
                node.parent.seq_len,
            )
            if eval_keys.get(node_id) == eval_key:
                continue  # nothing the candidate caches has changed
            candidate = EvictionCandidate(
                node=node,
                freeable_bytes=freeable,
                flop_efficiency=efficiency_fn(node, freeable),
                last_access=last_access,
                is_leaf=not children,
            )
            if ranks is not None:
                ranks.put(candidate, entries.get(node_id))
            entries[node_id] = candidate
            eval_keys[node_id] = eval_key
            self._snapshot = None
            if self.on_candidate_changed is not None:
                self.on_candidate_changed(candidate)
        self._node_visits += visits

    def _wake(self) -> None:
        """The first query of an index built on an empty tree: register,
        and mark every node in ``node_id`` order.

        That is the order an index registered from the start holds their
        first marks in: a node's first mark is the ``insert`` or
        ``_split_edge`` callback that created it, and ids are drawn at
        creation.  So the flush below makes the same candidates, in the same
        order, with the same ``on_candidate_changed`` calls.  Only
        ``node_visits`` can read lower: nodes detached while asleep are not
        visited (a registered index visits each once, then drops it).
        """
        self._tree.add_observer(self)
        nodes = sorted(self._tree.iter_nodes(), key=attrgetter("node_id"))
        self._dirty = {node.node_id: node for node in nodes}
        self._flush()

    # ------------------------------------------------------------------
    # TreeObserver callbacks — O(1) dirty marks, settled at the next read
    # ------------------------------------------------------------------
    def on_node_added(self, node: RadixNode) -> None:
        self._dirty[node.node_id] = node
        parent = node.parent
        if parent is not None and parent.parent is not None:  # skip the root
            self._dirty[parent.node_id] = parent

    def on_edge_split(self, middle: RadixNode, child: RadixNode) -> None:
        self._dirty[middle.node_id] = middle
        self._dirty[child.node_id] = child

    def on_leaf_removed(self, node: RadixNode, parent: RadixNode) -> None:
        self._dirty[node.node_id] = node
        if parent.parent is not None:  # skip the root
            self._dirty[parent.node_id] = parent

    def on_merged(self, node: RadixNode, child: RadixNode) -> None:
        self._dirty[node.node_id] = node
        self._dirty[child.node_id] = child

    def on_leaf_truncated(self, node: RadixNode, dropped: np.ndarray) -> None:
        self._dirty[node.node_id] = node

    # The state-change callbacks below skip a node that is not a candidate
    # and that the change leaves a non-candidate: whatever later makes it
    # evictable (an unpin, a checkpoint set, a child removed or merged, an
    # insert under it) marks it then, and the flush reads its fresh state.
    # A checkpoint change skips a pinned node; a pin or a touch, which
    # changes neither children nor freeable bytes, also one with more than
    # one child or nothing to free.
    def on_checkpoint_changed(self, node: RadixNode) -> None:
        if node.pin_count > 0 and node.node_id not in self._entries:
            return
        self._dirty[node.node_id] = node

    def on_pin_changed(self, node: RadixNode) -> None:
        if node.node_id not in self._entries and (
            node.pin_count > 0
            or len(node.children) > 1
            or self._freeable_fn(node) <= 0
        ):
            return
        self._dirty[node.node_id] = node

    on_touched = on_pin_changed
