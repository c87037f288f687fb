"""Router-side global prefix directory over a cluster's replica caches.

The deep probe (``router.probe_hit_tokens``) walks every replica's full radix
tree on every arrival — an O(replicas x tree-depth) walk per request that
also couples the router to each cache's internals.  The directory replaces
those probes with one shared radix index over the *union* of all replicas'
cached content, answering "who holds the deepest usable prefix of this
query?" in a single O(query-depth) walk.

It is maintained incrementally, never rescanned per request:

* each tracked replica cache exports its tree mutations through the
  :class:`~repro.core.radix_tree.TreeObserver` surface (the same contract
  that powers the eviction index), so admissions, speculative inserts,
  evictions, truncations, and abort rollbacks all update the directory as
  they happen — including those driven by request-session commits;
* a cache that replaces its tree wholesale (``reset()``, persistence
  reload, failover wipe) re-attaches its registered observers through
  :meth:`repro.core.interfaces.PrefixCache.add_tree_observer`'s contract,
  and the directory answers with one full resync of that replica.

Per directory node the index stores, per replica: how many tokens of the
node's edge the replica holds KVs for (coverage is always a prefix of the
edge, because a replica's own tree is prefix-closed along any root path)
and whether the replica checkpoints a recurrent state exactly at the
node's end.  Those two annotations reproduce both hit rules the deep
probe implements: the hybrid all-or-nothing rule (deepest checkpointed
node on the fully-matched path) and the pure-Transformer rule (raw
common-prefix length, mid-edge allowed).

The module is cut in three: :class:`PrefixIndex` is that radix index and
nothing else; :class:`ReplicaFront` is the replica lifecycle and where the
observer bridge lands, written once; :class:`PrefixDirectory` is the
synchronous oracle, a front over one index with every event applied inline
(:class:`~repro.cluster.sharded_directory.ShardedPrefixDirectory`: the same
front over a ring of indexes and their gossip queues).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Iterator, Optional

import numpy as np

from repro.core.node import RadixNode
from repro.core.radix_tree import TreeObserver, common_prefix_length
from repro.core.tokens import token_bytes


class _DirNode:
    """One edge of the union index plus its per-replica annotations.

    The edge is stored once, as the raw int32 bytes ``data`` (what the
    walks memcmp against, see :func:`_edge_shared`); ``edge`` is a
    zero-copy read-only array view of the same buffer.  ``cover[r]`` is
    how many leading tokens of ``edge`` replica ``r`` holds (present only
    when > 0; implies ``r`` fully covers the parent's edge).  ``ckpt`` is
    the set of replicas checkpointing exactly at this node's end depth —
    checkpoint marks force an edge split, so a checkpoint depth always
    lands on a node boundary.
    """

    __slots__ = ("data", "edge", "parent", "children", "end", "cover", "ckpt")

    def __init__(self, data: bytes, parent: Optional["_DirNode"]) -> None:
        self.data = data
        self.edge = np.frombuffer(data, dtype=np.int32)
        self.parent = parent
        self.children: dict[int, _DirNode] = {}
        self.end: int = (parent.end if parent is not None else 0) + len(self.edge)
        self.cover: dict[int, int] = {}
        self.ckpt: set[int] = set()

    @property
    def is_empty(self) -> bool:
        return not self.children and not self.cover and not self.ckpt


@dataclass
class IndexStats:
    """Structural counters of one :class:`PrefixIndex`."""

    marks: int = 0
    clears: int = 0
    splits: int = 0
    pruned_nodes: int = 0
    n_nodes: int = 0


@dataclass
class DirectoryStats:
    """What one directory's front saw: tree events and resyncs its replicas
    sent, lookups its routers asked, replicas invalidated or left untracked.
    Counted the same way by both backends."""

    events: int = 0
    resyncs: int = 0
    lookups: int = 0
    invalidations: int = 0
    untracked_replicas: int = 0


@dataclass
class DirectoryLookup:
    """Per-replica answer of one directory walk.

    ``kv_matched[r]`` is the raw common-prefix length between the query
    and replica ``r``'s cached content (the Transformer reuse length);
    ``ckpt_depth[r]`` is the deepest checkpointed prefix of the query that
    ``r`` holds with depth <= the walk's ``limit`` (the hybrid hit).
    Replicas with no match are absent.
    """

    kv_matched: dict[int, int] = field(default_factory=dict)
    ckpt_depth: dict[int, int] = field(default_factory=dict)
    #: Every checkpointed prefix depth of the query each replica holds
    #: (ascending, capped by the walk's ``limit``); ``ckpt_depth[r]`` is
    #: always ``ckpt_depths[r][-1]``.  Split-point steering picks its
    #: candidate split depths from this list.
    ckpt_depths: dict[int, list[int]] = field(default_factory=dict)


# Path-op kinds (ints, not an enum: applied in the gossip hot loop).
_MARK = 0
_CLEAR_BEYOND = 1
_CKPT_SET = 3
_CKPT_CLEAR = 4


def _edge_shared(
    child: _DirNode, tokens: np.ndarray, data: bytes, pos: int, upto: int
) -> int:
    """How many leading tokens of ``child``'s edge equal ``tokens[pos:upto]``
    (``pos`` is the depth of ``child``'s parent; ``data`` is ``tokens``'
    bytes).  Full coverage, by far the common step of a walk, is one memcmp
    against the stored edge bytes; only the step that diverges or ends
    mid-edge compares elementwise (``RadixTree.match``'s idiom)."""
    if data.startswith(child.data, 4 * pos, 4 * upto):
        return child.end - pos
    return common_prefix_length(child.edge, tokens[pos:upto])


def _iter_tree_paths(tree: Any) -> Iterator[tuple[np.ndarray, bytes, bool]]:
    """``(root path, its bytes, checkpointed?)`` of every node of a replica
    tree, parents before children (nothing for a tree-less cache)."""
    root = getattr(tree, "root", None)
    if root is None:
        return
    stack: list[tuple[RadixNode, bytes]] = [(root, b"")]
    while stack:
        node, data = stack.pop()
        if node is not root:
            yield np.frombuffer(data, dtype=np.int32), data, bool(node.has_ssm_state)
        stack.extend((child, data + child.data) for child in node.children.values())


class PrefixIndex:
    """The union radix index: which replica covers how much of which prefix.

    Its whole surface — what a directory, or a shard of one, may use:

    * ``root`` / ``iter_nodes()`` — the nodes (``data``, ``edge``, ``end``,
      ``cover``, ``ckpt``, ``children``; see :class:`_DirNode`), read-only;
    * ``stats`` — :class:`IndexStats`, structural counters only;
    * ``lookup(tokens, limit)`` — the per-request walk;
    * ``apply(kind, replica, tokens, data, depth)`` — one path op;
    * ``mark(replica, tokens, data, upto, ckpt=False)`` — the op a resync
      and a shard's truncated copy of a foreign region are made of;
    * ``clear_replica(replica)`` — drop every annotation of one replica;
    * ``check_integrity()``.

    It knows no cache, observer, clock or shard.
    """

    def __init__(self) -> None:
        self.root = _DirNode(b"", parent=None)
        self.stats = IndexStats()

    # ------------------------------------------------------------------
    # Lookup (the per-request O(query depth) walk)
    # ------------------------------------------------------------------
    def lookup(self, tokens: np.ndarray, limit: Optional[int] = None) -> DirectoryLookup:
        """Per-replica deepest reuse for ``tokens``.

        ``limit`` caps the checkpoint depths considered (the hybrid rule
        requires the final input token to be prefilled, so routers pass
        ``len(tokens) - 1``); KV matched lengths are reported raw.
        """
        out = DirectoryLookup()
        # Canonicalize once: the walk memcmps the query's bytes against edge
        # bytes, and an int64 array or a list compared raw would silently
        # miss.  A handle lends its backing bytes, which may run past ``n``.
        tokens, data = token_bytes(tokens)
        n = len(tokens)
        if limit is None:
            limit = n
        kv_matched = out.kv_matched
        node = self.root
        pos = 0
        # Coverage is prefix-closed (cover on a node implies full cover of
        # every ancestor — see check_integrity), so a single downward pass
        # suffices: deeper cover entries simply overwrite shallower ones.
        while pos < n:
            child = node.children.get(int(tokens[pos]))
            if child is None:
                break
            shared = _edge_shared(child, tokens, data, pos, n)
            for r, c in child.cover.items():
                kv_matched[r] = pos + (c if c < shared else shared)
            pos += shared
            if pos < child.end:
                break
            if child.ckpt and pos <= limit:
                for r in child.ckpt:
                    out.ckpt_depth[r] = pos
                    depths = out.ckpt_depths.get(r)
                    if depths is None:
                        out.ckpt_depths[r] = [pos]
                    else:
                        depths.append(pos)
            node = child
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def iter_nodes(self) -> Iterator[_DirNode]:
        stack = list(self.root.children.values())
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def check_integrity(self) -> None:
        """Raise ``AssertionError`` on any structural inconsistency (tests)."""
        for node in self.iter_nodes():
            assert len(node.edge) > 0, "non-root directory node with empty edge"
            assert node.parent is not None
            assert node.end == node.parent.end + len(node.edge)
            assert node.parent.children.get(int(node.edge[0])) is node
            assert not node.is_empty, "unpruned empty directory node"
            for r, c in node.cover.items():
                assert 0 < c <= len(node.edge)
                parent = node.parent
                if parent is not self.root:
                    assert parent.cover.get(r) == len(parent.edge), (
                        "coverage must be prefix-closed"
                    )
            for r in node.ckpt:
                assert node.cover.get(r) == len(node.edge), (
                    "checkpoint without full coverage"
                )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def apply(
        self, kind: int, replica: int, tokens: np.ndarray, data: bytes, depth: int
    ) -> None:
        """Apply one path op (``data`` is ``tokens``' bytes; ``depth`` as
        the bridge defines it: a mark runs from the root to the path's end
        whatever depth it starts changing at, so a shard that lost an
        earlier mark still ends up prefix-closed)."""
        if kind == _MARK:
            self.mark(replica, tokens, data, len(tokens))
        elif kind == _CLEAR_BEYOND:
            self._clear_beyond(replica, tokens, data, depth)
        elif kind == _CKPT_SET:
            self.mark(replica, tokens, data, depth, ckpt=True)
        else:  # _CKPT_CLEAR
            self._clear_ckpt(replica, tokens, data, depth)

    def _split(self, child: _DirNode, at: int) -> _DirNode:
        """Split ``child``'s edge after ``at`` tokens, redistributing
        per-replica coverage; checkpoints stay with ``child`` (its end
        depth is unchanged)."""
        parent = child.parent
        assert parent is not None and 0 < at < len(child.edge)
        middle = _DirNode(child.data[: 4 * at], parent)
        parent.children[int(middle.edge[0])] = middle
        child.data = child.data[4 * at :]
        child.edge = np.frombuffer(child.data, dtype=np.int32)
        child.parent = middle
        middle.children[int(child.edge[0])] = child
        new_cover: dict[int, int] = {}
        for r, c in child.cover.items():
            middle.cover[r] = min(c, at)
            if c > at:
                new_cover[r] = c - at
        child.cover = new_cover
        self.stats.splits += 1
        self.stats.n_nodes += 1
        if child.is_empty:
            # Every cover entry ended at or before the split point, and the
            # child carries no checkpoint (checkpoints imply full coverage)
            # and no children: the deep half is dead weight.  Drop it here —
            # no caller revisits it, so it would otherwise leak as an
            # unpruned empty node.  ``middle`` inherited at least one cover
            # entry in this case (the child's cover was non-empty pre-split),
            # so it never needs the ancestor-walking prune.
            del middle.children[int(child.edge[0])]
            child.parent = None
            self.stats.pruned_nodes += 1
            self.stats.n_nodes -= 1
        return middle

    def _prune(self, node: Optional[_DirNode]) -> None:
        """Remove ``node`` and its ancestors while they carry nothing."""
        while node is not None and node.parent is not None and node.is_empty:
            parent = node.parent
            del parent.children[int(node.edge[0])]
            node.parent = None
            self.stats.pruned_nodes += 1
            self.stats.n_nodes -= 1
            node = parent

    def _hang(self, parent: _DirNode, data: bytes, replica: int) -> _DirNode:
        """New leaf under ``parent`` with edge bytes ``data``, fully covered
        by ``replica``."""
        leaf = _DirNode(data, parent)
        parent.children[int(leaf.edge[0])] = leaf
        leaf.cover[replica] = len(leaf.edge)
        self.stats.n_nodes += 1
        return leaf

    def mark(
        self,
        replica: int,
        tokens: np.ndarray,
        data: bytes,
        upto: int,
        ckpt: bool = False,
    ) -> None:
        """Record that ``replica`` holds KVs for ``tokens[:upto]`` and, with
        ``ckpt``, a recurrent checkpoint at exactly ``upto`` — one descent
        either way; the checkpoint forces a node boundary at its depth."""
        self.stats.marks += 1
        node = self.root
        pos = 0
        while pos < upto:
            child = node.children.get(int(tokens[pos]))
            if child is None:
                node = self._hang(node, data[4 * pos : 4 * upto], replica)
                break
            shared = _edge_shared(child, tokens, data, pos, upto)
            pos += shared
            if pos == child.end:
                child.cover[replica] = shared
                node = child
            elif pos < upto:
                # Divergence mid-edge: split, then hang the new tail.
                node = self._split(child, shared)
                node.cover[replica] = shared
                node = self._hang(node, data[4 * pos : 4 * upto], replica)
                break
            elif ckpt:
                # The checkpointed path ends mid-edge: split at its depth.
                node = self._split(child, shared)
                node.cover[replica] = shared
            else:
                # Marked range ends mid-edge: partial coverage, no split.
                child.cover[replica] = max(child.cover.get(replica, 0), shared)
        if ckpt and node is not self.root:
            node.ckpt.add(replica)

    def _walk(
        self, tokens: np.ndarray, data: bytes, upto: int
    ) -> list[tuple[_DirNode, int, int]]:
        """Directory path along ``tokens[:upto]``: ``(node, start_pos, shared)``."""
        path: list[tuple[_DirNode, int, int]] = []
        node = self.root
        pos = 0
        while pos < upto:
            child = node.children.get(int(tokens[pos]))
            if child is None:
                break
            shared = _edge_shared(child, tokens, data, pos, upto)
            path.append((child, pos, shared))
            pos += shared
            if pos < child.end:
                break
            node = child
        return path

    def _clear_beyond(
        self, replica: int, tokens: np.ndarray, data: bytes, keep: int
    ) -> None:
        """Clear ``replica``'s coverage and checkpoints past depth ``keep``
        along the known token path."""
        self.stats.clears += 1
        deepest: Optional[_DirNode] = None
        for node, start, shared in self._walk(tokens, data, len(tokens)):
            end_here = start + shared
            if end_here <= keep:
                continue
            new = keep - start
            if new <= 0:
                node.cover.pop(replica, None)
            elif node.cover.get(replica, 0) > new:
                node.cover[replica] = new
            if node.end > keep:
                node.ckpt.discard(replica)
            deepest = node
        self._prune(deepest)

    def _clear_ckpt(
        self, replica: int, tokens: np.ndarray, data: bytes, depth: int
    ) -> None:
        """Drop ``replica``'s checkpoint mark at exactly ``depth``."""
        path = self._walk(tokens, data, depth)
        if not path:
            return
        node, start, shared = path[-1]
        if start + shared == depth == node.end:
            node.ckpt.discard(replica)
            self._prune(node)

    def clear_replica(self, replica: int) -> None:
        """Remove every annotation of ``replica`` from the whole index."""
        doomed: list[_DirNode] = []
        for node in self.iter_nodes():
            node.cover.pop(replica, None)
            node.ckpt.discard(replica)
            if node.is_empty:
                doomed.append(node)
        for node in doomed:
            self._prune(node)


class _ReplicaView(TreeObserver):
    """The per-replica observer bridge: each replica tree event becomes one
    ``(kind, replica, path, path bytes, depth)`` op handed to its front's
    ``_ingest_path_op`` (tree replacement: ``_ingest_resync``).  ``depth``
    is where the op starts changing the index: the parent's depth for a
    mark (which runs to the path's end), the keep-depth of a clear, the
    exact depth of a checkpoint.
    """

    def __init__(self, front: "ReplicaFront", replica: int) -> None:
        self.front = front
        self.replica = replica

    def _root_path(
        self, node: RadixNode, parent: Optional[RadixNode] = None, tail: bytes = b""
    ) -> tuple[np.ndarray, bytes]:
        """``node``'s root path (plus ``tail``, the bytes a truncation just
        cut off its end) as ``(int32 array, its bytes)``, serialized once
        per burst of events on it (a commit emits a mark and a checkpoint
        for the same leaf).  A node's path is fixed by its identity and
        length: splits and merges move tokens between nodes without
        changing any path, and a truncation changes the length.  ``parent``
        names where a detached ``node`` hung.  The pair is read-only
        because a queued ``DirectoryUpdate`` outlives the event.

        The front holds the one remembered path for all its views
        (``_last_path``: node id, length, path, bytes) — bursts of
        different replicas do not interleave, and a path per view pins
        ~30 KB per replica — keyed by the process-unique ``node_id``, not
        the node, so an evicted node's buffers are not kept alive."""
        front = self.front
        length = node.seq_len + len(tail) // 4
        last = front._last_path
        if last is not None and last[0] == node.node_id and last[1] == length:
            return last[2], last[3]
        # One copy: the parent chain's edge bytes, joined.
        edges = [tail] if parent is None else [node.data]
        cursor = node if parent is None else parent
        while cursor.parent is not None:
            edges.append(cursor.data)
            cursor = cursor.parent
        data = b"".join(reversed(edges))
        tokens = np.frombuffer(data, dtype=np.int32)
        front._last_path = (node.node_id, length, tokens, data)
        return tokens, data

    # -- structure events ------------------------------------------------
    def on_node_added(self, node: RadixNode) -> None:
        tokens, data = self._root_path(node)
        self.front._ingest_path_op(
            _MARK, self.replica, tokens, data, node.parent_seq_len
        )

    def on_leaf_removed(self, node: RadixNode, parent: RadixNode) -> None:
        # The detached node keeps its edge tokens, so the full removed
        # path is still reconstructible.
        tokens, data = self._root_path(node, parent)
        self.front._ingest_path_op(
            _CLEAR_BEYOND, self.replica, tokens, data, parent.seq_len
        )

    def on_leaf_truncated(self, node: RadixNode, dropped: bytes) -> None:
        # The index still holds the leaf's old path: clear along it, past
        # the leaf's new end.
        tokens, data = self._root_path(node, tail=dropped)
        self.front._ingest_path_op(
            _CLEAR_BEYOND, self.replica, tokens, data, node.seq_len
        )

    def on_checkpoint_changed(self, node: RadixNode) -> None:
        kind = _CKPT_SET if node.has_ssm_state else _CKPT_CLEAR
        tokens, data = self._root_path(node)
        self.front._ingest_path_op(kind, self.replica, tokens, data, node.seq_len)

    # The other callbacks stay the base class's no-ops.  Splits and merges
    # redistribute tokens between replica-tree nodes without changing the
    # replica's cached token set or checkpoint depths (merges always clear
    # the checkpoint first), so the directory's content view is unaffected;
    # pins and touches never were content.

    # -- tree replacement (reset / reload / failover) --------------------
    def on_tree_attached(self, tree: Any) -> None:
        self.front._ingest_resync(self.replica, tree)


class ReplicaFront:
    """What faces the replicas and the router, the same for every backend:
    which caches are observed (one :class:`_ReplicaView` each), which of
    them are tracked, and :class:`DirectoryStats`.

    A backend supplies where things land: ``lookup``, ``staleness``,
    ``check_integrity``, ``invalidate`` and the two hooks a view calls,
    ``_ingest_path_op`` and ``_ingest_resync``.  The views also share the
    ``_last_path`` memo (see :meth:`_ReplicaView._root_path`); nothing else
    of a front is theirs to touch.
    """

    def __init__(self) -> None:
        self.stats = DirectoryStats()
        self._views: dict[int, _ReplicaView] = {}
        self._caches: dict[int, Any] = {}
        self._tracked: set[int] = set()
        self._last_path: Optional[tuple] = None

    def attach(self, replica: int, cache: Any) -> bool:
        """Start tracking ``replica``'s cache; returns False when the
        cache has no observable tree (deep-probe fallback applies).

        Caches exposing their own ``probe`` method (block stores) are
        left untracked on purpose: the deep probe prefers that method,
        so the directory must too for decision compatibility.
        """
        if replica in self._views:
            if self._caches.get(replica) is cache:
                return replica in self._tracked
            # Same slot, different cache (a shared directory re-bound to a
            # rebuilt fleet): drop the stale observer before re-attaching.
            self.detach(replica)
        view = _ReplicaView(self, replica)
        self._views[replica] = view
        self._caches[replica] = cache
        attach = getattr(cache, "add_tree_observer", None)
        if (
            callable(getattr(cache, "probe", None))
            or attach is None
            or not attach(view)
        ):
            self.stats.untracked_replicas += 1
            return False
        self._tracked.add(replica)
        tree = getattr(cache, "tree", None)
        if tree is not None:
            self._ingest_resync(replica, tree)
        return True

    def tracked(self, replica: int) -> bool:
        return replica in self._tracked

    @property
    def replicas(self) -> tuple[int, ...]:
        return tuple(sorted(self._tracked))

    def detach(self, replica: int) -> None:
        """Stop observing ``replica`` and drop its entries."""
        view = self._views.pop(replica, None)
        cache = self._caches.pop(replica, None)
        if view is not None and cache is not None:
            remove = getattr(cache, "remove_tree_observer", None)
            if callable(remove):
                remove(view)
        if replica in self._tracked:
            self._tracked.discard(replica)
            self.invalidate(replica)

    def close(self) -> None:
        """Detach from every cache and transport (directory becomes inert)."""
        for replica in list(self._views):
            self.detach(replica)
        self.connect_transport(None)

    def connect_transport(self, transport: Optional[Any]) -> None:
        """Take the run's flush scheduler.  A backend that applies every
        event inline has nothing to schedule."""

    def invalidate(self, replica: int) -> None:
        """Drop every directory entry of ``replica`` (failure/removal)."""
        raise NotImplementedError

    def _ingest_path_op(
        self, kind: int, replica: int, tokens: np.ndarray, data: bytes, depth: int
    ) -> None:
        """One replica tree event, from that replica's view."""
        raise NotImplementedError

    def _ingest_resync(self, replica: int, tree: Any) -> None:
        """``replica``'s entries are to become what ``tree`` holds now
        (attach time, and whenever the cache swaps in a new tree)."""
        raise NotImplementedError


class PrefixDirectory(ReplicaFront):
    """Incrementally maintained prefix -> replica-set index for routing:
    the synchronous oracle, one :class:`PrefixIndex` updated inline."""

    def __init__(self) -> None:
        super().__init__()
        self.index = PrefixIndex()

    def lookup(self, tokens: Any, limit: Optional[int] = None) -> DirectoryLookup:
        self.stats.lookups += 1
        return self.index.lookup(tokens, limit)

    def invalidate(self, replica: int) -> None:
        self.index.clear_replica(replica)
        self.stats.invalidations += 1

    def staleness(self) -> dict:
        return {**asdict(self.stats), **asdict(self.index.stats)}

    def check_integrity(self) -> None:
        self.index.check_integrity()

    def _ingest_path_op(
        self, kind: int, replica: int, tokens: np.ndarray, data: bytes, depth: int
    ) -> None:
        self.stats.events += 1
        self.index.apply(kind, replica, tokens, data, depth)

    def _ingest_resync(self, replica: int, tree: Any) -> None:
        self.stats.resyncs += 1
        self.index.clear_replica(replica)
        for path, data, has_ckpt in _iter_tree_paths(tree):
            self.index.mark(replica, path, data, len(path), ckpt=has_ckpt)
