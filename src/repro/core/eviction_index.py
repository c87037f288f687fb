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

``node_visits`` counts candidacy evaluations — the index-side analogue of
the seed's per-eviction full-tree node visits; ``bench_e2e`` reports it as
``core.eviction_index.node_visits``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.eviction import EvictionCandidate
from repro.core.node import RadixNode
from repro.core.radix_tree import RadixTree, TreeObserver

FreeableFn = Callable[[RadixNode], int]
EfficiencyFn = Callable[[RadixNode, int], float]


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

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Re-seed the candidate set with one full tree scan."""
        self._entries.clear()
        self._eval_keys.clear()
        self._snapshot = None
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
        visits = 0
        for node in dirty.values():
            visits += 1
            node_id = node.node_id
            children = node.children
            # Inlined node.is_eviction_shaped; a detached node (parent None)
            # is dropped by the same guard.
            if node.parent is None or node.pin_count > 0 or len(children) > 1:
                if entries.pop(node_id, None) is not None:
                    del eval_keys[node_id]
                    self._snapshot = None
                continue
            freeable = freeable_fn(node)
            if freeable <= 0:
                if entries.pop(node_id, None) is not None:
                    del eval_keys[node_id]
                    self._snapshot = None
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

    def on_leaf_truncated(self, node: RadixNode) -> None:
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
