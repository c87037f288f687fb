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

``node_visits`` counts candidacy evaluations — the index-side analogue of
the seed's per-eviction full-tree node visits; ``bench_e2e`` reports it as
``core.eviction_index.node_visits``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from repro.core.eviction import EvictionCandidate
from repro.core.node import RadixNode
from repro.core.radix_tree import RadixTree, TreeObserver

FreeableFn = Callable[[RadixNode], int]
EfficiencyFn = Callable[[RadixNode, int], float]


class _RankColumns:
    """The two scored columns of every live candidate, ranked when read.

    Row 0 of ``v`` is ``last_access``, row 1 ``flop_efficiency``; a
    candidate's ``slot`` is its column in ``v`` and its position in
    ``candidates``, so one entering, changing or leaving is two scalar
    writes.  :meth:`normalized` evaluates the IEEE expressions of
    :func:`~repro.core.eviction._rank_normalize` on the same whole
    numbers, so it is bit-identical to the from-scratch definition.
    """

    __slots__ = ("candidates", "v")

    def __init__(self, candidates: Iterable[EvictionCandidate]) -> None:
        self.candidates = live = list(candidates)
        n = len(live)
        self.v = np.empty((2, 2 * n))
        for slot, candidate in enumerate(live):
            candidate.slot = slot
        self.v[0, :n] = [c.last_access for c in live]
        self.v[1, :n] = [c.flop_efficiency for c in live]

    def normalized(self) -> np.ndarray:
        """``_rank_normalize`` of both columns, shape ``(2, n)``, slot order.

        Per row one sort; a value's tie group fills the sorted positions
        ``lo .. hi - 1`` (``_rank_normalize``'s ``i`` and ``j``), found by
        searching the sorted row for itself: keys in order, a walk.
        """
        n = len(self.candidates)
        out = np.empty((2, n))
        for row in (0, 1):
            values = self.v[row, :n]
            order = values.argsort()
            ordered = values[order]
            lo = ordered.searchsorted(ordered, "left")
            hi = ordered.searchsorted(ordered, "right")
            out[row, order] = ((lo + hi - 1) / 2.0 + 1.0) / n
        return out

    def put(
        self, candidate: EvictionCandidate, old: Optional[EvictionCandidate]
    ) -> None:
        """Add ``candidate``, or let it take over the slot of ``old``."""
        live = self.candidates
        if old is None:
            slot = candidate.slot = len(live)
            if slot == self.v.shape[1]:
                grown = np.empty((2, 2 * slot + 2))
                grown[:, :slot] = self.v
                self.v = grown
            live.append(candidate)
        else:
            slot = candidate.slot = old.slot
            live[slot] = candidate
        self.v[0, slot] = candidate.last_access
        self.v[1, slot] = candidate.flop_efficiency

    def remove(self, old: EvictionCandidate) -> None:
        """Drop ``old``; the last slot moves into the hole it leaves."""
        live = self.candidates
        last = live.pop()
        if last is not old:
            slot = last.slot = old.slot
            live[slot] = last
            self.v[:, slot] = self.v[:, len(live)]


class EvictionIndex(TreeObserver):
    """The maintained evictable set of one radix tree.

    Parameters
    ----------
    tree:
        The tree to observe.  The index registers itself as an observer and
        seeds the candidate set with one full scan (the only full scan it
        ever performs).
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
        self._dirty: dict[int, RadixNode] = {}
        self._snapshot: Optional[list[EvictionCandidate]] = None
        # Kept from the first normalized_ranks() read on; None until then,
        # and again after drop_ranks() or rebuild().
        self._ranks: Optional[_RankColumns] = None
        self._node_visits = 0
        self.on_candidate_changed: Optional[Callable[[EvictionCandidate], None]] = None
        tree.add_observer(self)
        self.rebuild()

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

    def on_leaf_truncated(self, node: RadixNode, dropped: bytes) -> None:
        self._dirty[node.node_id] = node

    # The three state-change callbacks below share a shortcut: a node that
    # is pinned *and* not currently a candidate was a non-candidate before
    # the change and stays one (pinned nodes never enter the set), so no
    # mark is needed — its fresh recency/checkpoint/freeable state is
    # re-read at the unpin mark that must precede it becoming evictable.
    def on_checkpoint_changed(self, node: RadixNode) -> None:
        if node.pin_count > 0 and node.node_id not in self._entries:
            return
        self._dirty[node.node_id] = node

    def on_pin_changed(self, node: RadixNode) -> None:
        if node.pin_count > 0 and node.node_id not in self._entries:
            return
        self._dirty[node.node_id] = node

    def on_touched(self, node: RadixNode) -> None:
        if node.pin_count > 0 and node.node_id not in self._entries:
            return
        self._dirty[node.node_id] = node
