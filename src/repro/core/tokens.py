"""Interned token sequences: one buffer per handle, read where it lies.

Every layer of the simulator keys work off token sequences: the radix tree
matches and inserts them, ``probe_hit_tokens`` sizes hits, the cluster
directory walks them per routing decision.  :class:`TokenSeq` is the
one-per-request handle that canonicalizes a sequence once and gives every
token exactly one home:

* ``data`` — the immutable little-endian int32 bytes backing the handle.
  The one copy taken at construction (or the ``bytes`` object
  :meth:`TokenSeq.adopt` was given, immutable already) is both the
  defensive snapshot and the serialization every byte-comparing walk reads;
* ``lends`` — True for an adopted buffer (a trace session's history, held
  by the session while its rounds replay) and its prefix handles: a tree's
  new edge of one is a slice of ``arr``, of any other handle a copy (one
  edge object per node, :mod:`repro.core.node`, ``tests/test_one_edge.py``);
* ``arr`` — the canonical 1-D ``int32`` array every consumer agrees on: a
  read-only ``np.frombuffer`` view of ``data``, never a second buffer;
* :meth:`prefix` — a handle on the first ``n`` tokens that shares the same
  ``data`` (a multi-round session is one buffer and one prefix handle per
  request), so ``data`` can run past the handle's end: walkers bound every
  compare by ``len(handle)``, never by ``len(data)``
  (``data.startswith(edge_bytes, 4 * pos, 4 * end)`` after ``end <= n``);
* :meth:`tobytes` — exactly the sequence's bytes (``data`` itself for a
  root handle, sliced on first use and cached for a prefix handle), for
  consumers that key on them;
* :meth:`__hash__` / :meth:`prefix_hash` — a cached content hash, and the
  crc32 of any prefix's bytes (O(prefix length), read from ``data``);
* ``anchors`` — the buffer's resume anchors, its one mutable part: per
  index (a radix tree, a directory index) the deepest node the buffer's
  last walk of that index fully matched or created, so the next walk of any
  prefix handle of the buffer (a session's next round) starts there instead
  of at the root.  :meth:`prefix` hands the map on, so a buffer's handles
  share it.  Keys are :func:`anchor_key` serials, never ``id()`` (which a
  dropped index's successor may reuse), and values are weak references:
  a session's buffer keeps no tree, index or node alive.  A walker resumes
  only at a node still attached (``parent is not None``) and no deeper than
  its query; an attached node's root path never changes, so the resumed
  walk ends where the root walk would.

A ``TokenSeq`` quacks like its array (``len``, indexing, slicing,
iteration, ``np.asarray``), so it can flow through code written against
plain arrays; :func:`as_token_array` (re-exported by
``repro.core.interfaces``) unwraps it for free.

Equality and hashing follow *canonicalized content*: two ``TokenSeq``
handles (or a handle and any token sequence) are equal exactly when their
canonical int32 arrays are element-wise equal — the property the hypothesis
suite pins across dtypes, slices, prefix handles and empty sequences.  The
anchors take no part in either.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Optional
from weakref import ref
from zlib import crc32

import numpy as np

_INT32_ITEMSIZE = 4

_anchor_keys = itertools.count(1)


def anchor_key() -> int:
    """A fresh key for one index's resume anchors (see ``anchors``), unique
    for the process's lifetime."""
    return next(_anchor_keys)


def canonical_token_array(tokens: Any) -> np.ndarray:
    """Coerce ``tokens`` (sequence of ints or ndarray) to a 1-D int32 array.

    The canonicalization every cache layer agrees on; ``np.asarray`` returns
    already-canonical arrays unchanged (no copy).
    """
    if isinstance(tokens, TokenSeq):
        return tokens.arr
    arr = np.asarray(tokens, dtype=np.int32)
    if arr.ndim != 1:
        raise ValueError(f"token sequence must be 1-D, got shape {arr.shape}")
    return arr


def token_bytes(tokens: Any) -> tuple[np.ndarray, bytes]:
    """``(canonical array, backing bytes)`` of a query, for a byte-comparing
    walk: a handle lends both, anything else is canonicalized and serialized
    once.  The bytes of a prefix handle run past the array, so the walk
    bounds every compare by ``len(array)``."""
    if isinstance(tokens, TokenSeq):
        return tokens.arr, tokens.data
    arr = canonical_token_array(tokens)
    return arr, arr.tobytes()


def resume_anchor(tokens: Any, key: int) -> tuple[Optional[dict], Any]:
    """``(anchor map, anchored node)`` of a query for the index keyed
    ``key``: the map is None for anything but a handle, the node None when
    the index has no live anchor there.  The walker checks that the node is
    attached and no deeper than the query before it starts there, and
    stores a weak reference to its own deepest node under ``key``."""
    if not isinstance(tokens, TokenSeq):
        return None, None
    anchors = tokens.anchors
    held = anchors.get(key)
    return anchors, None if held is None else held()


class TokenSeq:
    """An immutable, interned token sequence: bytes, a view, cached hashes.

    Construction canonicalizes eagerly and copies once, into ``data``
    (:meth:`adopt` takes bytes already made, with no copy); ``arr`` views
    those bytes, so nothing the caller still holds can reach the handle.
    The exact bytes of a prefix handle and the content hash are computed on
    first use and cached for the handle's lifetime.  ``anchors`` (see the
    module docstring) is shared by every prefix handle of the buffer.
    """

    __slots__ = ("arr", "data", "anchors", "lends", "_len", "_bytes", "_hash")

    def __init__(self, tokens: Any) -> None:
        self._own(canonical_token_array(tokens).tobytes(), lends=False)

    @classmethod
    def adopt(cls, data: bytes) -> "TokenSeq":
        """Handle whose ``data`` is ``data`` itself (int32 tokens in native
        order): ``bytes`` cannot change, so it needs no defensive copy, and
        the handle ``lends`` it to the trees it is inserted into."""
        if not isinstance(data, bytes):
            raise TypeError(f"adopt takes immutable bytes, got {type(data).__name__}")
        seq = cls.__new__(cls)
        seq._own(data, lends=True)
        return seq

    def _own(self, data: bytes, lends: bool) -> None:
        self.data = data
        self.lends = lends
        self.arr = np.frombuffer(data, dtype=np.int32)
        self.anchors: dict[int, ref] = {}
        self._len = len(self.arr)
        self._bytes: Optional[bytes] = data
        self._hash: Optional[int] = None

    @classmethod
    def of(cls, tokens: Any) -> "TokenSeq":
        """Return ``tokens`` itself when already interned, else intern it."""
        if isinstance(tokens, TokenSeq):
            return tokens
        return cls(tokens)

    def prefix(self, length: int) -> "TokenSeq":
        """Handle on ``tokens[:length]`` that shares this handle's ``data``
        and ``anchors`` (``arr`` is a view, no bytes are copied); the whole
        sequence is the handle itself."""
        if length == self._len:
            return self
        if not 0 <= length < self._len:
            raise ValueError(
                f"prefix length must be in [0, {self._len}], got {length}"
            )
        view = TokenSeq.__new__(TokenSeq)
        view.data = self.data
        view.arr = self.arr[:length]
        view.anchors = self.anchors
        view.lends = self.lends
        view._len = length
        view._bytes = None
        view._hash = None
        return view

    # ------------------------------------------------------------------
    # Array interface (so handles flow through array-typed code)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._len

    def __getitem__(self, key: Any) -> Any:
        return self.arr[key]

    def __iter__(self) -> Iterator:
        return iter(self.arr)

    def __array__(self, dtype: Any = None, copy: Any = None) -> np.ndarray:
        if dtype is None or dtype == self.arr.dtype:
            return self.arr if not copy else self.arr.copy()
        return self.arr.astype(dtype)

    def __reduce__(self) -> tuple:
        # Weak references do not pickle: a copy starts with no anchors.
        return TokenSeq, (self.arr,)

    # ------------------------------------------------------------------
    # Cached serializations
    # ------------------------------------------------------------------
    def tobytes(self) -> bytes:
        """Raw little-endian int32 bytes of exactly this sequence (cached)."""
        data = self._bytes
        if data is None:
            data = self._bytes = self.data[: self._len * _INT32_ITEMSIZE]
        return data

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self.tobytes())
        return value

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, TokenSeq):
            return self.tobytes() == other.tobytes()
        try:
            arr = canonical_token_array(other)
        except (TypeError, ValueError):
            return NotImplemented
        return len(arr) == len(self.arr) and bool(np.array_equal(self.arr, arr))

    def prefix_hash(self, length: int) -> int:
        """Content hash of ``tokens[:length]``: crc32 of its bytes in ``data``.

        O(``length``) per call, in C, and 0 for the empty prefix.
        """
        if not 0 <= length <= self._len:
            raise ValueError(
                f"prefix length must be in [0, {self._len}], got {length}"
            )
        return crc32(self.data[: length * _INT32_ITEMSIZE])
