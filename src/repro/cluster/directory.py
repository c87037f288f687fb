"""Router-side global prefix directory over a cluster's replica caches.

The directory is one shared radix index over the *union* of all replicas'
cached content, each node naming the replicas that hold it.  It answers
"who holds the deepest usable prefix of this query?" in a single
O(query-depth) walk, with the hit each replica's own tree would serve
(``router.probe_hit_tokens`` is the per-replica reference).

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

from dataclasses import asdict, dataclass
from typing import Any, Iterator, Optional
from weakref import ref

import numpy as np

from repro.core import sink
from repro.core.node import EMPTY_EDGE, RadixNode, cut, is_lent
from repro.core.radix_tree import TreeObserver, common_prefix_length
from repro.core.tokens import anchor_key, resume_anchor, token_bytes


class _DirNode:
    """One edge of the union index plus its per-replica annotations.

    The edge is one read-only int32 array, ``edge`` (what the walks memcmp
    against, see :func:`_edge_shared`): lent by a session's buffer when a
    resumed mark hangs it (:meth:`PrefixIndex.resume`), else owned; one
    edge object per node (:mod:`repro.core.node`, ``tests/test_one_edge.py``).
    ``cover[r]`` is how many leading tokens of ``edge`` replica ``r`` holds
    (present only when > 0; implies ``r`` fully covers the parent's edge).
    ``ckpt`` is the set of replicas checkpointing exactly at this node's
    end depth — checkpoint marks force an edge split, so a checkpoint depth
    always lands on a node boundary.
    """

    __slots__ = ("edge", "parent", "children", "end", "cover", "ckpt", "__weakref__")

    def __init__(self, edge: np.ndarray, parent: Optional["_DirNode"]) -> None:
        self.edge = edge
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


class DirectoryLookup:
    """The path one directory walk matched, and the per-replica answers
    derived from it.

    The walk keeps only where it stopped: ``last``, the deepest index node
    it reached (its edge matched whole or in part; None: nothing matched),
    and ``matched``, how many query tokens it matched; ``limit`` caps the
    checkpoint depths that count.  :meth:`checkpoints` lists the path's
    checkpointed nodes and their holder sets.  It and the three per-replica
    maps are built from the path the first time something reads them
    (values and dict order as a walk filling them would have built them),
    so read a lookup before the index changes again:

    * ``kv_matched[r]`` — the raw common-prefix length between the query
      and replica ``r``'s cached content (the Transformer reuse length);
    * ``ckpt_depth[r]`` — the deepest checkpointed prefix of the query that
      ``r`` holds with depth <= ``limit`` (the hybrid hit);
    * ``ckpt_depths[r]`` — every such depth, ascending (``ckpt_depth[r]``
      is its last); split-point steering picks its split depths from it.

    Replicas with no match are absent.
    """

    __slots__ = (
        "last", "matched", "limit", "_checkpoints", "_kv_matched", "_ckpt_depth", "_ckpt_depths"
    )

    def __init__(self, last: Optional[_DirNode] = None, matched: int = 0, limit: int = 0) -> None:
        self.last = last
        self.matched = matched
        self.limit = limit
        self._checkpoints: Optional[list[tuple[int, set[int]]]] = None
        self._kv_matched: Optional[dict[int, int]] = None
        self._ckpt_depth: Optional[dict[int, int]] = None
        self._ckpt_depths: Optional[dict[int, list[int]]] = None

    def checkpoints(self) -> list[tuple[int, set[int]]]:
        """``(depth, holders)`` of every fully matched checkpointed node at
        depth <= ``limit``, deepest first.  ``holders`` is the index's own
        set: read it, never keep or change it."""
        if self._checkpoints is None:
            found = []
            node = self.last
            if node is not None:
                cap = self.matched if self.matched < self.limit else self.limit
                while node.end > cap and node.parent is not None:
                    node = node.parent
                while node.parent is not None:
                    if node.ckpt:
                        found.append((node.end, node.ckpt))
                    node = node.parent
            self._checkpoints = found
        return self._checkpoints

    @property
    def kv_matched(self) -> dict[int, int]:
        if self._kv_matched is None:
            path = []
            node = self.last
            while node is not None and node.parent is not None:
                path.append(node)
                node = node.parent
            kv: dict[int, int] = {}
            matched = self.matched
            # Root side first: coverage is prefix-closed, so a deeper node's
            # entry for a replica overwrites its shallower ones.
            for node in reversed(path):
                start = node.parent.end
                shared = (node.end if node.end < matched else matched) - start
                for r, c in node.cover.items():
                    kv[r] = start + (c if c < shared else shared)
            self._kv_matched = kv
        return self._kv_matched

    def _derive_ckpt(self) -> None:
        depth: dict[int, int] = {}
        depths: dict[int, list[int]] = {}
        for end, holders in reversed(self.checkpoints()):
            for r in holders:
                depth[r] = end
                depths.setdefault(r, []).append(end)
        self._ckpt_depth, self._ckpt_depths = depth, depths

    @property
    def ckpt_depth(self) -> dict[int, int]:
        if self._ckpt_depth is None:
            self._derive_ckpt()
        return self._ckpt_depth

    @property
    def ckpt_depths(self) -> dict[int, list[int]]:
        if self._ckpt_depths is None:
            self._derive_ckpt()
        return self._ckpt_depths

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectoryLookup):
            return NotImplemented
        return (self.kv_matched, self.ckpt_depth, self.ckpt_depths) == (
            other.kv_matched,
            other.ckpt_depth,
            other.ckpt_depths,
        )

    def __repr__(self) -> str:
        return (
            f"DirectoryLookup(kv_matched={self.kv_matched!r}, "
            f"ckpt_depth={self.ckpt_depth!r}, ckpt_depths={self.ckpt_depths!r})"
        )


# Path-op kinds (ints, not an enum: applied in the gossip hot loop).
_MARK = 0
_CLEAR_BEYOND = 1
_CKPT_SET = 3
_CKPT_CLEAR = 4


def _edge_shared(
    child: _DirNode, tokens: np.ndarray, data: bytes, pos: int, upto: int
) -> int:
    """How many leading tokens of ``child``'s edge equal ``tokens[pos:upto]``
    (``pos`` is where ``tokens`` reach ``child``'s parent; ``data`` is
    ``tokens``' bytes).  Full coverage, by far the common step of a walk, is
    one memcmp against the stored edge; only the step that diverges or
    ends mid-edge compares elementwise (``RadixTree.match``'s idiom)."""
    if data.startswith(child.edge, 4 * pos, 4 * upto):
        return len(child.edge)
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
        stack.extend((c, b"".join((data, c.edge_tokens))) for c in node.children.values())


class PrefixIndex:
    """The union radix index: which replica covers how much of which prefix.

    Its whole surface — what a directory, or a shard of one, may use:

    * ``root`` / ``iter_nodes()`` — the nodes (``edge``, ``end``,
      ``cover``, ``ckpt``, ``children``; see :class:`_DirNode`), read-only;
    * ``stats`` — :class:`IndexStats`, structural counters only;
    * ``lookup(tokens, limit)`` — the per-request walk;
    * ``apply(kind, replica, tokens, data, depth)`` — one path op;
    * ``resume(kind, replica, held, depth, tail)`` — the same op started at
      a node it changes instead of at the root (the resume contract);
    * ``mark(replica, tokens, data, upto, ckpt=False, start=None)`` — the op
      a resync and a shard's truncated copy of a foreign region are made of;
    * ``clear_replica(replica)`` — drop every annotation of one replica;
    * ``check_integrity()``.

    It knows no cache, observer, clock or shard.
    """

    def __init__(self) -> None:
        self.root = _DirNode(EMPTY_EDGE, parent=None)
        self.stats = IndexStats()
        self._anchor_key = anchor_key()

    # ------------------------------------------------------------------
    # Lookup (the per-request O(query depth) walk)
    # ------------------------------------------------------------------
    def lookup(self, tokens: np.ndarray, limit: Optional[int] = None) -> DirectoryLookup:
        """The path ``tokens`` match, for per-replica deepest reuse.

        ``limit`` caps the checkpoint depths considered (the hybrid rule
        requires the final input token to be prefilled, so routers pass
        ``len(tokens) - 1``); KV matched lengths are reported raw.  The walk
        touches no per-replica map: see :class:`DirectoryLookup` for what is
        derived from the path it returns.

        A handle's walk starts at its anchor for this index (see
        :mod:`repro.core.tokens`), the deepest node its buffer's last lookup
        here fully matched, when that node is still attached and no deeper
        than the query.  An attached node's root path never changes (a split
        inserts above it, a prune detaches it), so the lookup is the root
        walk's, node for node.
        """
        anchors, node = resume_anchor(tokens, self._anchor_key)
        # Canonicalize once: the walk memcmps the query's bytes against the
        # edges, and an int64 array or a list compared raw would silently
        # miss.  A handle lends its backing bytes, which may run past ``n``.
        tokens, data = token_bytes(tokens)
        n = len(tokens)
        heads = memoryview(data).cast("i")  # a token as an int, no numpy scalar
        stop = 4 * n
        if node is None or node.parent is None or node.end > n:
            node = self.root
        last = None if node is self.root else node
        pos = node.end
        while pos < n:
            child = node.children.get(heads[pos])
            if child is None:
                break
            last = child
            # ``_edge_shared``, inlined: a whole edge is one memcmp.
            if not data.startswith(child.edge, 4 * pos, stop):
                pos += common_prefix_length(child.edge, tokens[pos:n])
                break
            pos = child.end
            node = child
        if anchors is not None:
            anchors[self._anchor_key] = ref(node)
        return DirectoryLookup(last, pos, n if limit is None else limit)

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
    ) -> Optional[_DirNode]:
        """Apply one path op (``data`` is ``tokens``' bytes; ``depth`` as
        the bridge defines it: a mark runs from the root to the path's end
        whatever depth it starts changing at, so a shard that lost an
        earlier mark still ends up prefix-closed).  Returns the node holding
        a mark's end depth (None for a clear)."""
        if kind == _MARK:
            return self.mark(replica, tokens, data, len(tokens))
        if kind == _CKPT_SET:
            return self.mark(replica, tokens, data, depth, ckpt=True)
        if kind == _CLEAR_BEYOND:
            self._clear_beyond(replica, tokens, data, depth)
        else:  # _CKPT_CLEAR
            self._clear_ckpt(replica, tokens, data, depth)
        return None

    def resume(
        self, kind: int, replica: int, held: _DirNode, depth: int, tail: np.ndarray = EMPTY_EDGE
    ) -> _DirNode:
        """The path op ``apply`` would apply, started at ``held`` instead of
        the root and given no path: ``held`` is an attached node on the op's
        path holding its anchor depth (``held.parent.end < anchor <=
        held.end``: ``depth`` for a mark or a checkpoint op, the path's end
        for a clear); ``tail`` is a mark's tokens past ``depth``: the replica
        node's new edge, one read-only array (``tests/test_one_edge.py``),
        walked where it lies at ``depth`` in its session's token array when
        it is lent.  The caller guarantees ``replica`` covers the path
        through ``depth`` and this index applied its every op inline, so the
        root walk's steps above ``held`` would only re-assign stored cover
        values: the result is the same node for node, dict order and
        counters included.  Returns the node holding the op's end depth (a
        clear's: ``depth``)."""
        if kind == _CLEAR_BEYOND:
            return self._clear_up(replica, held, depth)
        if kind == _CKPT_CLEAR:
            if held.end == depth:
                held.ckpt.discard(replica)
                self._prune(held)
            return held
        # A mark: from ``held`` when its edge ends at ``depth``, else from its
        # parent with the head of its edge; a lent tail is read in its buffer.
        start = held if held.end == depth else held.parent
        lent = is_lent(tail)
        if lent:  # its session's token array, over the lending handle's bytes
            tokens = tail.base
            data, upto = tokens.base, depth + len(tail)
        else:  # an owned edge is all of its own bytes
            data = tail.base if start is held else b"".join((held.edge[: depth - start.end], tail))
            tokens = np.frombuffer(data, dtype=np.int32)
            upto = len(tokens)
        return self.mark(replica, tokens, data, upto, kind == _CKPT_SET, start, lent)

    def _split(self, child: _DirNode, at: int) -> _DirNode:
        """Split ``child``'s edge after ``at`` tokens, redistributing
        per-replica coverage; checkpoints stay with ``child`` (its end
        depth is unchanged)."""
        parent = child.parent
        assert parent is not None and 0 < at < len(child.edge)
        middle = _DirNode(cut(child.edge, 0, at), parent)
        parent.children[int(middle.edge[0])] = middle
        child.edge = cut(child.edge, at)
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

    def _hang(self, parent: _DirNode, edge: np.ndarray, replica: int) -> _DirNode:
        """New leaf under ``parent`` with ``edge``, fully covered by
        ``replica``."""
        leaf = _DirNode(edge, parent)
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
        start: Optional[_DirNode] = None,
        lent: bool = False,
    ) -> _DirNode:
        """Record that ``replica`` holds KVs for ``tokens[:upto]`` and, with
        ``ckpt``, a recurrent checkpoint at exactly ``upto`` — one descent
        either way; the checkpoint forces a node boundary at its depth.
        Returns the node holding ``upto``.  ``start`` is a walk-resume point
        (``RadixTree.insert``'s idiom): a node ``replica`` covers to its end,
        whose path ``tokens``, ``data`` and ``upto`` continue, or, ``lent``,
        in which that path lies from the root (a session's token array, see
        ``resume``): a new edge is then a slice of ``tokens``, else a copy
        of its bytes (a joined path is transient: no leaf pins it)."""
        self.stats.marks += 1
        node = self.root if start is None else start
        pos = node.end if lent else 0
        while pos < upto:
            child = node.children.get(int(tokens[pos]))
            if child is None:
                edge = tokens[pos:upto] if lent else np.frombuffer(data[4 * pos : 4 * upto], np.int32)
                node = self._hang(node, edge, replica)
                break
            shared = _edge_shared(child, tokens, data, pos, upto)
            pos += shared
            if shared == len(child.edge):
                child.cover[replica] = shared
                node = child
            elif pos < upto or ckpt:
                # Divergence mid-edge (the next step hangs the new tail) or
                # the checkpointed path ends mid-edge: split there.
                node = self._split(child, shared)
                node.cover[replica] = shared
            else:
                # Marked range ends mid-edge: partial coverage, no split.
                child.cover[replica] = max(child.cover.get(replica, 0), shared)
                node = child
        if ckpt and node is not self.root:
            node.ckpt.add(replica)
        return node

    def _walk(
        self, tokens: np.ndarray, data: bytes, upto: int
    ) -> Optional[tuple[_DirNode, int]]:
        """The last directory node along ``tokens[:upto]`` and the depth the
        tokens reach in it (None: no edge starts with them)."""
        last = None
        node = self.root
        pos = 0
        while pos < upto:
            child = node.children.get(int(tokens[pos]))
            if child is None:
                break
            pos += _edge_shared(child, tokens, data, pos, upto)
            last = (child, pos)
            if pos < child.end:
                break
            node = child
        return last

    def _clear_beyond(
        self, replica: int, tokens: np.ndarray, data: bytes, keep: int
    ) -> None:
        """Clear ``replica``'s coverage and checkpoints past depth ``keep``
        along the known token path: up from where the path ends."""
        last = self._walk(tokens, data, len(tokens))
        if last is not None and last[1] > keep:
            self._clear_up(replica, last[0], keep)
        else:
            self.stats.clears += 1

    def _clear_up(self, replica: int, node: _DirNode, keep: int) -> _DirNode:
        """Clear ``replica`` past depth ``keep`` on ``node`` and on each
        ancestor ending past it (each node on its own: the order does not
        matter), then prune; returns the node holding ``keep``."""
        self.stats.clears += 1
        deepest = last = node
        while node.end > keep:
            last = node
            new = keep - node.parent.end
            if new <= 0:
                node.cover.pop(replica, None)
            elif node.cover.get(replica, 0) > new:
                node.cover[replica] = new
            node.ckpt.discard(replica)
            node = node.parent
        self._prune(deepest)
        return node if node.end == keep else last

    def _clear_ckpt(
        self, replica: int, tokens: np.ndarray, data: bytes, depth: int
    ) -> None:
        """Drop ``replica``'s checkpoint mark at exactly ``depth``."""
        last = self._walk(tokens, data, depth)
        if last is not None and last[1] == depth == last[0].end:
            last[0].ckpt.discard(replica)
            self._prune(last[0])

    def clear_replica(self, replica: int) -> None:
        """Remove every annotation of ``replica``, visiting its footprint
        only: coverage is prefix-closed and a checkpoint implies full
        coverage (``check_integrity``), so every node carrying ``replica``
        hangs below a chain of nodes it covers."""
        doomed: list[_DirNode] = []
        stack = [self.root]
        while stack:
            for child in stack.pop().children.values():
                if child.cover.pop(replica, 0):
                    child.ckpt.discard(replica)
                    stack.append(child)
                    if child.is_empty:
                        doomed.append(child)
        for node in doomed:
            self._prune(node)


class _ReplicaView(TreeObserver):
    """The per-replica observer bridge: each replica tree event becomes one
    ``(kind, replica, path, path bytes, depth)`` op handed to its front's
    ``_ingest_path_op`` (tree replacement: ``_ingest_resync``).  ``depth``
    is where the op starts changing the index: the parent's depth for a
    mark (which runs to the path's end), the keep-depth of a clear, the
    exact depth of a checkpoint.

    An op the front applies inline need not carry its path: ``held`` maps a
    replica node's id to ``(index, node)``, the directory node holding its
    end depth in the index applying its ops inline.  A node's own mark or
    checkpoint records it, a split hands it on to the new middle node, a
    removal or merge drops it, an index rebuild drops them all.  An op with
    an attached entry is offered to ``_ingest_resumed`` (no path join, no
    crc32, no root walk); the front declines one that is not past the region.
    """

    def __init__(self, front: "ReplicaFront", replica: int) -> None:
        self.front = front
        self.replica = replica
        self.held: dict[int, tuple[PrefixIndex, _DirNode]] = {}

    def _send(
        self, kind: int, depth: int, anchor: int, source: RadixNode, tail: np.ndarray, *path: Any
    ) -> None:
        """Hand one op on ``path[0]`` to the front: resumed at ``source``'s
        entry climbed to the node holding depth ``anchor``, if the front takes
        it; else with ``_root_path(*path)``.  Records the op's end entry."""
        front = self.front
        entry = self.held.get(source.node_id)
        resumed = None
        if entry is not None and entry[1].parent is not None:  # not pruned or dropped
            index, held = entry
            while held.parent.end >= anchor:  # a later split above it
                held = held.parent
            resumed = front._ingest_resumed(kind, self.replica, index, held, depth, tail)
            entry = None if resumed is None else (index, resumed)
        if resumed is None:
            tokens, data = self._root_path(*path)
            entry = front._ingest_path_op(kind, self.replica, tokens, data, depth)
        if entry is not None:
            self.held[path[0].node_id] = entry

    def _root_path(
        self, node: RadixNode, parent: Optional[RadixNode] = None, tail: np.ndarray = EMPTY_EDGE
    ) -> tuple[np.ndarray, bytes]:
        """``node``'s root path (plus ``tail``, the tokens a truncation just
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
        length = node.seq_len + len(tail)
        last = front._last_path
        if last is not None and last[0] == node.node_id and last[1] == length:
            return last[2], last[3]
        # One copy: the parent chain's edges, joined.
        edges = [tail] if parent is None else [node.edge_tokens]
        cursor = node if parent is None else parent
        while cursor.parent is not None:
            edges.append(cursor.edge_tokens)
            cursor = cursor.parent
        data = b"".join(reversed(edges))
        tokens = np.frombuffer(data, dtype=np.int32)
        front._last_path = (node.node_id, length, tokens, data)
        return tokens, data

    # -- structure events ------------------------------------------------
    def on_node_added(self, node: RadixNode) -> None:
        # Resumes at the parent's entry with the new edge.
        depth = node.parent_seq_len
        self._send(_MARK, depth, depth, node.parent, node.edge_tokens, node)

    def on_leaf_removed(self, node: RadixNode, parent: RadixNode) -> None:
        # The detached node keeps its edge tokens, so the full removed
        # path is still reconstructible.
        self._send(_CLEAR_BEYOND, parent.seq_len, node.seq_len, node, EMPTY_EDGE, node, parent)
        self.held.pop(node.node_id, None)

    def on_leaf_truncated(self, node: RadixNode, dropped: np.ndarray) -> None:
        # The index still holds the leaf's old path: clear along it, past
        # the leaf's new end.  A clear carrying its path leaves the entry
        # on the old path, where climbing still finds the new end.
        old_end = node.seq_len + len(dropped)
        self._send(_CLEAR_BEYOND, node.seq_len, old_end, node, EMPTY_EDGE, node, None, dropped)

    def on_checkpoint_changed(self, node: RadixNode) -> None:
        kind = _CKPT_SET if node.has_ssm_state else _CKPT_CLEAR
        self._send(kind, node.seq_len, node.seq_len, node, EMPTY_EDGE, node)

    # Splits and merges redistribute tokens between replica-tree nodes
    # without changing the replica's cached token set or checkpoint depths
    # (merges always clear the checkpoint first), so the directory's content
    # is unaffected; only the entries follow the nodes.  Pins and touches
    # stay the base class's no-ops: they never were content.
    def on_edge_split(self, middle: RadixNode, child: RadixNode) -> None:
        entry = self.held.get(child.node_id)
        if entry is not None:
            self.held[middle.node_id] = entry

    def on_merged(self, node: RadixNode, child: RadixNode) -> None:
        self.held.pop(node.node_id, None)

    # -- tree replacement (reset / reload / failover) --------------------
    def on_tree_attached(self, tree: Any) -> None:
        self.held.clear()
        self.front._ingest_resync(self.replica, tree)


class ReplicaFront:
    """What faces the replicas and the router, the same for every backend:
    which caches are observed (one :class:`_ReplicaView` each), which of
    them are tracked, and :class:`DirectoryStats`.

    A backend supplies where things land: ``lookup``, ``staleness``,
    ``check_integrity``, ``invalidate`` and the three hooks a view calls,
    ``_ingest_path_op``, ``_ingest_resumed`` and ``_ingest_resync``.  The
    views also share the ``_last_path`` memo (see
    :meth:`_ReplicaView._root_path`); nothing else of a front is theirs to
    touch.  A backend that rebuilds or clears an index calls ``_forget``.
    """

    def __init__(self) -> None:
        self.stats = DirectoryStats()
        self._views: dict[int, _ReplicaView] = {}
        self._caches: dict[int, Any] = {}
        self._tracked: set[int] = set()
        self._last_path: Optional[tuple] = None

    def attach(self, replica: int, cache: Any) -> bool:
        """Start tracking ``replica``'s cache; returns False when the
        cache has no observable tree (the router probes it instead).

        Caches exposing their own ``probe`` method (block stores) are
        left untracked on purpose: ``probe_hit_tokens`` prefers that
        method, so the router must too for decision compatibility.
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
    ) -> Optional[tuple[PrefixIndex, _DirNode]]:
        """One replica tree event, from that replica's view.  Returns the
        index that applied it inline in full and the node holding a mark's
        end there (None: a clear, or no index applies it inline)."""
        raise NotImplementedError

    def _ingest_resumed(
        self, kind: int, replica: int, index: PrefixIndex, held: _DirNode, depth: int, tail: np.ndarray
    ) -> Optional[_DirNode]:
        """The same event resumed at ``held`` of ``index`` (see
        :meth:`PrefixIndex.resume`) and counted as its path op would be,
        when it changes nothing but ``index``; else None, untouched."""
        raise NotImplementedError

    def _ingest_resync(self, replica: int, tree: Any) -> None:
        """``replica``'s entries are to become what ``tree`` holds now
        (attach time, and whenever the cache swaps in a new tree)."""
        raise NotImplementedError

    def _forget(self, replica: Optional[int] = None) -> None:
        """Drop the resume entries of ``replica``'s view (every view's:
        None) after its index was cleared or rebuilt."""
        for r, view in self._views.items():
            if replica is None or r == replica:
                view.held.clear()


class PrefixDirectory(ReplicaFront):
    """Incrementally maintained prefix -> replica-set index for routing:
    the synchronous oracle, one :class:`PrefixIndex` updated inline."""

    def __init__(self) -> None:
        super().__init__()
        self.index = PrefixIndex()

    def lookup(self, tokens: Any, limit: Optional[int] = None) -> DirectoryLookup:
        self.stats.lookups += 1
        found = self.index.lookup(tokens, limit)
        if sink.SINK is not None:
            sink.SINK("lookup", self, found)
        return found

    def invalidate(self, replica: int) -> None:
        self.index.clear_replica(replica)
        self._forget(replica)
        self.stats.invalidations += 1

    def staleness(self) -> dict:
        return {**asdict(self.stats), **asdict(self.index.stats)}

    def check_integrity(self) -> None:
        self.index.check_integrity()

    def _ingest_path_op(
        self, kind: int, replica: int, tokens: np.ndarray, data: bytes, depth: int
    ) -> Optional[tuple[PrefixIndex, _DirNode]]:
        self.stats.events += 1
        held = self.index.apply(kind, replica, tokens, data, depth)
        return None if held is None else (self.index, held)

    def _ingest_resumed(
        self, kind: int, replica: int, index: PrefixIndex, held: _DirNode, depth: int, tail: np.ndarray
    ) -> _DirNode:
        self.stats.events += 1  # one index holds every depth: always resumes
        return index.resume(kind, replica, held, depth, tail)

    def _ingest_resync(self, replica: int, tree: Any) -> None:
        self.stats.resyncs += 1
        self.index.clear_replica(replica)
        for path, data, has_ckpt in _iter_tree_paths(tree):
            self.index.mark(replica, path, data, len(path), ckpt=has_ckpt)
