"""Token-level radix tree over request histories (paper section 4.1).

The tree is the bookkeeping structure behind Marconi's admission policy:
edges are labeled with token arrays of arbitrary length, nodes mark
branch-off points and sequence ends, and each node owns the KVs of its edge
plus (optionally) one recurrent checkpoint for its full prefix.

The tree itself is purely structural — byte accounting and policy decisions
live in :mod:`repro.core.cache` so that the same tree serves Marconi,
SGLang+, and the ablation variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.core.node import RadixNode
from repro.core.tokens import token_bytes


class TreeObserver:
    """Callback surface fired by :class:`RadixTree` as structure changes.

    Observers power incremental bookkeeping (the eviction index) without the
    tree knowing anything about byte accounting or policies.  The contract,
    per callback (see ``docs/architecture.md`` for the full protocol):

    * ``on_node_added(node)`` — a new leaf was linked under ``node.parent``.
      Fired after linking; the parent's child count has already changed.
    * ``on_edge_split(middle, child)`` — an edge was split: ``middle`` is the
      new intermediate node now owning the edge's head, ``child`` kept the
      tail (its ``edge_tokens`` shrank; its path and ``seq_len`` are
      unchanged).  ``middle`` inherited ``child``'s pin count.
    * ``on_leaf_removed(node, parent)`` — ``node`` was detached from
      ``parent``; ``parent``'s child count has already decreased.
    * ``on_merged(node, child)`` — single-child ``node`` was removed and
      ``child`` absorbed its edge tokens (``child.kv_tokens`` grew;
      ``child.seq_len`` is unchanged).
    * ``on_leaf_truncated(node, dropped)`` — a leaf's edge (and ``seq_len``)
      shrank; ``dropped`` is the bytes of the tokens cut off its end, which
      the tree no longer holds.
    * ``on_checkpoint_changed(node)`` — ``has_ssm_state`` was toggled.
    * ``on_pin_changed(node)`` — ``pin_count`` changed (fired per node on
      every :meth:`RadixTree.pin_path` / :meth:`RadixTree.unpin_path` hop).
    * ``on_touched(node)`` — ``last_access`` (and possibly ``hit_count``)
      was refreshed.

    All callbacks fire *after* the mutation is complete, so observers may
    inspect the tree's new state but must not mutate it re-entrantly.
    """

    def on_node_added(self, node: RadixNode) -> None: ...

    def on_edge_split(self, middle: RadixNode, child: RadixNode) -> None: ...

    def on_leaf_removed(self, node: RadixNode, parent: RadixNode) -> None: ...

    def on_merged(self, node: RadixNode, child: RadixNode) -> None: ...

    def on_leaf_truncated(self, node: RadixNode, dropped: bytes) -> None: ...

    def on_checkpoint_changed(self, node: RadixNode) -> None: ...

    def on_pin_changed(self, node: RadixNode) -> None: ...

    def on_touched(self, node: RadixNode) -> None: ...


def common_prefix_length(a: np.ndarray, b: np.ndarray) -> int:
    """Length of the longest common prefix of two int token arrays."""
    limit = min(len(a), len(b))
    if limit == 0:
        return 0
    mismatch = a[:limit] != b[:limit]
    first = int(np.argmax(mismatch))
    if mismatch[first]:
        return first
    return limit


@dataclass(slots=True)
class MatchResult:
    """Result of walking ``tokens`` down the tree without mutating it.

    Attributes
    ----------
    matched_len:
        Raw common-prefix length between the query and the tree's contents
        (may end mid-edge).  This is the KV-reusable length for pure
        Transformers.
    path:
        Fully matched non-root nodes in root→deepest order.  Candidate
        recurrent-state hits are the nodes in this list with
        ``has_ssm_state`` — an SSM hit must end exactly on a node (the
        "all or nothing" property of section 3).
    """

    matched_len: int
    path: list[RadixNode] = field(default_factory=list)

    @property
    def deepest_node(self) -> Optional[RadixNode]:
        return self.path[-1] if self.path else None

    def deepest_ssm_node(self, max_seq_len: int) -> Optional[RadixNode]:
        """Deepest matched checkpoint usable for a prefix of ``max_seq_len``."""
        for node in reversed(self.path):
            if node.has_ssm_state and node.seq_len <= max_seq_len:
                return node
        return None


@dataclass(slots=True)
class InsertOutcome:
    """Result of inserting a token sequence.

    Attributes
    ----------
    end_node:
        The node whose path equals the inserted sequence.
    new_leaf:
        Leaf created for the non-shared suffix (``None`` when the sequence
        was already fully present or ends exactly at a split point).
    split_node:
        Intermediate node created by splitting an existing edge (``None``
        when no split occurred).  At most one split can happen per insert.
        Split nodes are exactly the "purely input" branch points the
        admission policy checkpoints.
    new_edge_tokens:
        Number of tokens added to the tree as fresh edge material (the KV
        bytes the cache must charge).  Splits redistribute tokens and add 0.
    """

    end_node: RadixNode
    new_leaf: Optional[RadixNode] = None
    split_node: Optional[RadixNode] = None
    new_edge_tokens: int = 0

    @property
    def created_intermediate_node(self) -> bool:
        return self.split_node is not None


class RadixTree:
    """A radix tree keyed by int32 token sequences."""

    def __init__(self) -> None:
        self.root = RadixNode(b"", parent=None, now=0.0)
        self._observers: list[TreeObserver] = []

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def add_observer(self, observer: TreeObserver) -> None:
        """Register ``observer`` for all future structure-change callbacks."""
        self._observers.append(observer)

    def remove_observer(self, observer: TreeObserver) -> None:
        """Unregister ``observer``; no-op if it was never registered."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def match(self, tokens: np.ndarray) -> MatchResult:
        """Walk ``tokens`` down the tree; never mutates.

        Full-edge coverage — by far the common case on a walk — is one
        memcmp of the node's edge bytes against the query's bytes where
        they lie (no slice); only the step that diverges (or ends the query
        mid-edge) compares elementwise with :func:`common_prefix_length`.
        """
        arr, data = token_bytes(tokens)
        n = len(arr)
        node = self.root
        pos = 0
        path: list[RadixNode] = []
        while pos < n:
            child = node.children.get(int(arr[pos]))
            if child is None:
                break
            end = child.seq_len
            if end <= n and data.startswith(child.data, 4 * pos, 4 * end):
                pos = end
                node = child
                path.append(child)
                continue
            # Diverged (or query exhausted) mid-edge: KVs up to the shared
            # point are reusable but no node boundary was reached.
            pos += common_prefix_length(child.edge_tokens, arr[pos:])
            break
        return MatchResult(matched_len=pos, path=path)

    def insert(
        self,
        tokens: np.ndarray,
        now: float,
        start: Optional[RadixNode] = None,
    ) -> InsertOutcome:
        """Insert ``tokens`` as a root path, splitting edges as needed.

        ``start`` is a walk-resume hint: a node the caller *guarantees* is
        attached and whose path equals ``tokens[:start.seq_len]`` (e.g. the
        deepest fully-matched node of a just-completed :meth:`match`, or a
        still-pinned end node whose sequence ``tokens`` extends).  The walk
        then skips straight to it — the root walk would deterministically
        descend to the same node, so the outcome is identical.

        The tree owns its edges: a new leaf copies exactly its suffix out of
        the query's bytes, so no edge ever aliases a caller's array, a
        request's handle or a session's buffer, whatever ``tokens`` was.
        """
        arr, data = token_bytes(tokens)
        n = len(arr)
        if start is not None and start.parent is not None:
            node = start
            pos = start.seq_len
        else:
            node = self.root
            pos = 0
        split_node: Optional[RadixNode] = None
        new_leaf: Optional[RadixNode] = None
        new_edge_tokens = 0
        while pos < n:
            child = node.children.get(int(arr[pos]))
            if child is None:
                break
            end = child.seq_len
            if end <= n and data.startswith(child.data, 4 * pos, 4 * end):
                node = child
                pos = end
                continue
            # Partial match within `child`'s edge: split it at `shared`.
            shared = common_prefix_length(child.edge_tokens, arr[pos:])
            node = split_node = self._split_edge(child, shared, now)
            pos += shared
            break
        if pos < n:
            new_leaf = RadixNode(data[4 * pos : 4 * n], parent=node, now=now)
            node.children[new_leaf.first_token] = new_leaf
            new_edge_tokens = n - pos
            node = new_leaf
            for obs in self._observers:
                obs.on_node_added(new_leaf)
        return InsertOutcome(
            end_node=node,
            new_leaf=new_leaf,
            split_node=split_node,
            new_edge_tokens=new_edge_tokens,
        )

    def _split_edge(self, child: RadixNode, at: int, now: float) -> RadixNode:
        """Split ``child``'s incoming edge after ``at`` tokens.

        Creates and returns the new intermediate node.  The child keeps its
        states (its path is unchanged); the intermediate node starts with no
        recurrent checkpoint — the admission policy decides whether to add
        one.  KV ownership is redistributed, not created.
        """
        if not 0 < at < len(child.edge_tokens):
            raise ValueError(
                f"split position {at} out of range for edge of length {len(child.edge_tokens)}"
            )
        parent = child.parent
        assert parent is not None, "cannot split the root's (empty) edge"
        data = child.data
        middle = RadixNode(data[: 4 * at], parent=parent, now=now)
        # A pinned descendant pins every node on its path; the new middle
        # node sits on child's path so it inherits child's pin count.
        middle.pin_count = child.pin_count
        parent.children[middle.first_token] = middle
        child.replace_edge(data[4 * at :])
        child.parent = middle
        middle.children[child.first_token] = child
        for obs in self._observers:
            obs.on_edge_split(middle, child)
        return middle

    # ------------------------------------------------------------------
    # Eviction mechanics (section 4.3)
    # ------------------------------------------------------------------
    def remove_leaf(self, node: RadixNode) -> None:
        """Detach a leaf node, dropping its KVs and checkpoint."""
        if node.is_root:
            raise ValueError("cannot remove the root")
        if not node.is_leaf:
            raise ValueError(f"node {node.node_id} is not a leaf")
        if node.is_pinned:
            raise ValueError(f"node {node.node_id} is pinned by an in-flight request")
        assert node.parent is not None
        parent = node.parent
        del parent.children[node.first_token]
        node.parent = None
        for obs in self._observers:
            obs.on_leaf_removed(node, parent)

    def merge_into_child(self, node: RadixNode) -> RadixNode:
        """Remove a single-child node; the child absorbs its edge KVs.

        Returns the absorbing child.  This is the paper's eviction of an
        intermediate node: "its SSM states are released, and its KVs are
        absorbed by its child node".
        """
        if node.is_root:
            raise ValueError("cannot merge the root")
        if node.n_children != 1:
            raise ValueError(f"node {node.node_id} has {node.n_children} children; need exactly 1")
        if node.is_pinned:
            raise ValueError(f"node {node.node_id} is pinned by an in-flight request")
        (child,) = node.children.values()
        parent = node.parent
        assert parent is not None
        first = node.first_token
        child.replace_edge(node.data + child.data)
        child.parent = parent
        parent.children[first] = child
        node.parent = None
        node.children.clear()
        for obs in self._observers:
            obs.on_merged(node, child)
        return child

    def truncate_leaf(self, node: RadixNode, keep_tokens: int) -> None:
        """Shorten a leaf's edge to its first ``keep_tokens`` tokens.

        Used when a new sequence's tail does not fit in the cache: the
        longest affordable prefix is kept (KVs are sliceable on the sequence
        dimension), mirroring how block caches admit as many prefix blocks
        as fit.  Only valid on leaves without a recurrent checkpoint — a
        checkpoint represents the *full* edge and cannot be shortened.
        """
        if not node.is_leaf:
            raise ValueError(f"node {node.node_id} is not a leaf")
        if node.has_ssm_state:
            raise ValueError("cannot truncate a checkpointed leaf")
        if not 0 < keep_tokens < len(node.edge_tokens):
            raise ValueError(
                f"keep_tokens must be in (0, {len(node.edge_tokens)}), got {keep_tokens}"
            )
        data = node.data
        node.replace_edge(data[: 4 * keep_tokens])
        node.seq_len = node.parent_seq_len + keep_tokens
        dropped = data[4 * keep_tokens :]
        for obs in self._observers:
            obs.on_leaf_truncated(node, dropped)

    def undo_insert(
        self, new_leaf: Optional[RadixNode], split_node: Optional[RadixNode]
    ) -> int:
        """Revert what one :meth:`insert` added (its outcome's ``new_leaf``
        and ``split_node``), as far as nothing has built on it since: the
        leaf goes unless it grew children, is pinned or was checkpointed;
        the split is merged back unless it kept a second child, is pinned
        or was checkpointed.  Returns the edge tokens that went with the
        leaf (0 when it stays)."""
        removed = 0
        if (
            new_leaf is not None
            and new_leaf.parent is not None
            and new_leaf.is_leaf
            and not new_leaf.is_pinned
            and not new_leaf.has_ssm_state
        ):
            removed = new_leaf.kv_tokens
            self.remove_leaf(new_leaf)
        if (
            split_node is not None
            and split_node.parent is not None
            and split_node.n_children == 1
            and not split_node.has_ssm_state
            and not split_node.is_pinned
        ):
            self.merge_into_child(split_node)
        return removed

    # ------------------------------------------------------------------
    # Node state (checkpoint / recency) — routed through the tree so the
    # observer surface sees every change that affects eviction bookkeeping.
    # ------------------------------------------------------------------
    def set_checkpoint(self, node: RadixNode, now: Optional[float] = None) -> None:
        """Mark ``node`` as holding a full-model recurrent checkpoint."""
        node.has_ssm_state = True
        if now is not None:
            node.last_access = now
        for obs in self._observers:
            obs.on_checkpoint_changed(node)

    def clear_checkpoint(self, node: RadixNode) -> None:
        """Release ``node``'s recurrent checkpoint (and any state payload)."""
        node.has_ssm_state = False
        node.state_payload = None
        for obs in self._observers:
            obs.on_checkpoint_changed(node)

    def touch(self, node: RadixNode, now: float) -> None:
        """Refresh ``node``'s recency after a hit (bumps its hit count)."""
        node.touch(now)
        for obs in self._observers:
            obs.on_touched(node)

    def refresh_access(self, node: RadixNode, now: float) -> None:
        """Refresh ``node``'s recency without counting a hit (admissions)."""
        node.last_access = now
        for obs in self._observers:
            obs.on_touched(node)

    # ------------------------------------------------------------------
    # Pinning (in-flight request protection)
    # ------------------------------------------------------------------
    def pin_path(self, node: RadixNode, stop: Optional[RadixNode] = None) -> None:
        """Pin every node from ``node`` up to (not including) the root.

        ``stop`` bounds the walk: pinning stops *before* ``stop`` (which
        must be an ancestor of ``node``).  Callers use it to transfer a pin
        from a still-pinned ancestor path to a longer path — the shared
        segment would receive +1 then −1 with no observable state in
        between, so skipping it is identical and saves the double walk.
        """
        observers = self._observers
        cursor: Optional[RadixNode] = node
        while cursor is not None and cursor is not stop and cursor.parent is not None:
            cursor.pin_count += 1
            for obs in observers:
                obs.on_pin_changed(cursor)
            cursor = cursor.parent

    def unpin_path(self, node: RadixNode) -> None:
        """Release a pin taken with :meth:`pin_path`."""
        observers = self._observers
        cursor: Optional[RadixNode] = node
        while cursor is not None and cursor.parent is not None:
            if cursor.pin_count <= 0:
                raise ValueError(f"unbalanced unpin at node {cursor.node_id}")
            cursor.pin_count -= 1
            for obs in observers:
                obs.on_pin_changed(cursor)
            cursor = cursor.parent

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def iter_nodes(self, include_root: bool = False) -> Iterator[RadixNode]:
        """Iterate all nodes (pre-order)."""
        for node in self.root.iter_subtree():
            if node.is_root and not include_root:
                continue
            yield node

    @property
    def n_nodes(self) -> int:
        """Number of non-root nodes."""
        return sum(1 for _ in self.iter_nodes())

    @property
    def total_edge_tokens(self) -> int:
        """Total tokens stored on edges (== KV tokens owned tree-wide)."""
        return sum(node.kv_tokens for node in self.iter_nodes())

    def clone(self) -> "RadixTree":
        """Deep structural copy (for the alpha tuner's snapshot + replay).

        Node statistics (timestamps, checkpoints, hit counts) are preserved;
        pins and state payloads are not — a replayed world has no in-flight
        requests.
        """
        copy = RadixTree()
        copy.root.last_access = self.root.last_access

        def _copy_children(src: RadixNode, dst: RadixNode) -> None:
            for first, child in src.children.items():
                mirrored = RadixNode(child.data, parent=dst, now=child.created_at)
                mirrored.has_ssm_state = child.has_ssm_state
                mirrored.last_access = child.last_access
                mirrored.hit_count = child.hit_count
                dst.children[first] = mirrored
                _copy_children(child, mirrored)

        _copy_children(self.root, copy.root)
        return copy

    def check_integrity(self) -> None:
        """Raise ``AssertionError`` on any structural inconsistency (tests)."""
        for node in self.iter_nodes(include_root=True):
            if node.is_root:
                assert node.seq_len == 0 and len(node.edge_tokens) == 0
            else:
                assert len(node.edge_tokens) > 0, "non-root node with empty edge"
                assert node.parent is not None
                assert node.seq_len == node.parent.seq_len + len(node.edge_tokens)
                assert node.parent.children.get(node.first_token) is node
            assert not node.edge_tokens.flags.writeable
            assert node.edge_tokens.tobytes() == node.data, "edge view out of step"
            first_tokens = [int(c.edge_tokens[0]) for c in node.children.values()]
            assert len(first_tokens) == len(set(first_tokens)), "duplicate child first-token"
            for key, child in node.children.items():
                assert key == int(child.edge_tokens[0])
                assert child.parent is node
