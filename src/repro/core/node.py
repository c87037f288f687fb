"""Radix-tree node: one edge's tokens plus the model states they map to.

Following the paper's Fig. 4, we associate states with *nodes*: a node owns
the KVs of the tokens on its incoming edge (``edge_tokens``) and, when it is
a checkpoint, one full-model recurrent (SSM + conv) state representing *all*
tokens from the root through the end of its edge.

A node holds one edge object, ``edge_tokens``: a read-only int32 array that
:meth:`RadixTree.match` / ``insert`` memcmp a query against where it lies
(``bytes.startswith``, ``b"".join`` and ``crc32`` take it as it is).  It is
*lent*, a slice of an adopted session buffer's ``TokenSeq.arr``
(``TokenSeq.lends``), or *owned*, ``np.frombuffer`` of bytes of its own;
never a view of a caller's array or a request's private copy, never
mutated, only replaced.  ``tests/test_one_edge.py`` pins the rule.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Optional

import numpy as np

_node_ids = itertools.count(1)

#: The root's edge: every tree and directory index shares one empty owned edge.
EMPTY_EDGE = np.frombuffer(b"", dtype=np.int32)


def is_lent(edge: np.ndarray) -> bool:
    """True for a lent edge: a slice of a session's ``TokenSeq.arr`` (its
    base is that array); an owned edge's base is its own bytes."""
    return isinstance(edge.base, np.ndarray)


def cut(edge: np.ndarray, start: int, stop: Optional[int] = None) -> np.ndarray:
    """``edge[start:stop]`` as an edge of the same kind: a lent edge's part
    is a view of the same buffer, an owned edge's part is copied into bytes
    of its own (so that no half pins the other)."""
    part = edge[start:stop]
    return part if is_lent(edge) else np.frombuffer(part.tobytes(), dtype=np.int32)


class RadixNode:
    """A node in the prefix radix tree.

    Attributes
    ----------
    edge_tokens:
        Tokens on the edge from ``parent`` to this node (empty for the root),
        a read-only int32 array, lent or owned (see the module docstring).
        The node owns the KVs of exactly these tokens; absorption on eviction
        concatenates a removed parent's edge into its child's, so KV byte
        accounting follows ``len(edge_tokens)`` at all times.
    seq_len:
        Total number of tokens on the root→node path (the prefix length this
        node represents).
    has_ssm_state:
        True when a full-model recurrent checkpoint for this prefix is cached.
    last_access:
        Timestamp of the most recent hit on (or creation of) this node.
        Per section 4.3, hits refresh only the accessed node, not ancestors.
    pin_count:
        Number of in-flight requests whose path runs through this node;
        pinned nodes are never evicted or merged.
    state_payload:
        Optional real model state (used when the cache stores executable
        NumPy model states for exact-reuse serving); ``None`` in pure
        simulation mode.
    """

    __slots__ = (
        "node_id",
        "edge_tokens",
        "parent",
        "children",
        "seq_len",
        "has_ssm_state",
        "last_access",
        "created_at",
        "hit_count",
        "pin_count",
        "state_payload",
        "__weakref__",  # a session buffer's resume anchor (core/tokens.py)
    )

    def __init__(self, edge_tokens: np.ndarray, parent: Optional["RadixNode"], now: float) -> None:
        self.node_id: int = next(_node_ids)
        self.edge_tokens: np.ndarray = edge_tokens
        self.parent: Optional[RadixNode] = parent
        self.children: dict[int, RadixNode] = {}
        parent_len = parent.seq_len if parent is not None else 0
        self.seq_len: int = parent_len + len(self.edge_tokens)
        self.has_ssm_state: bool = False
        self.last_access: float = now
        self.created_at: float = now
        self.hit_count: int = 0
        self.pin_count: int = 0
        self.state_payload: Any = None

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def n_children(self) -> int:
        return len(self.children)

    @property
    def kv_tokens(self) -> int:
        """Number of tokens whose KVs this node owns (its edge length)."""
        return len(self.edge_tokens)

    @property
    def parent_seq_len(self) -> int:
        """Prefix length at the parent (0 for the root itself)."""
        return self.parent.seq_len if self.parent is not None else 0

    @property
    def is_pinned(self) -> bool:
        return self.pin_count > 0

    @property
    def first_token(self) -> int:
        """First token of the incoming edge (the child-map key in the parent)."""
        if len(self.edge_tokens) == 0:
            raise ValueError("root node has no incoming edge")
        return int(self.edge_tokens[0])

    def child_for(self, token: int) -> Optional["RadixNode"]:
        """Child whose edge starts with ``token``, if any."""
        return self.children.get(int(token))

    def path_tokens(self) -> np.ndarray:
        """Full root→node token sequence, rebuilt on every call in O(depth).

        Not on a per-event hot path: the cluster directories' observer
        bridge joins the same parent chain's edges into bytes, once per
        burst of events on a node (``_ReplicaView._root_path``), instead of
        calling this per tree event.  Callers are the tiered cache's
        demotions, the offline Belady analysis and tests.
        """
        parts: list[np.ndarray] = []
        node: Optional[RadixNode] = self
        while node is not None and not node.is_root:
            parts.append(node.edge_tokens)
            node = node.parent
        if not parts:
            return np.empty(0, dtype=np.int32)
        return np.concatenate(parts[::-1])

    def iter_subtree(self) -> Iterator["RadixNode"]:
        """Yield this node and all descendants (pre-order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def touch(self, now: float) -> None:
        """Refresh the recency timestamp after a hit."""
        self.last_access = now
        self.hit_count += 1
