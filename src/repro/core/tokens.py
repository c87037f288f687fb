"""Interned token sequences: canonicalize once, hash once, probe many times.

Every layer of the simulator keys work off token sequences: the radix tree
matches and inserts them, ``probe_hit_tokens`` sizes hits, the cluster
directory walks them per routing decision.  The seed code re-canonicalized
(``np.asarray(..., dtype=np.int32)``) and re-serialized the same request's
tokens at each of those layers.  :class:`TokenSeq` is the one-per-request
handle that pays those costs once:

* ``arr`` — the canonical 1-D ``int32`` array every consumer agrees on;
* :meth:`tobytes` — the array's raw bytes, computed lazily and cached (the
  radix tree's full-edge fast path compares byte slices against cached
  per-node edge bytes instead of running elementwise numpy comparisons);
* :meth:`__hash__` / :meth:`prefix_hash` — a cached content hash, and the
  crc32 of any prefix's bytes (O(prefix length), over the cached bytes), so
  prefix-keyed lookups never re-serialize the sequence.

A ``TokenSeq`` quacks like its array (``len``, indexing, slicing,
iteration, ``np.asarray``), so it can flow through code written against
plain arrays; :func:`as_token_array` (re-exported by
``repro.core.interfaces``) unwraps it for free.

Equality and hashing follow *canonicalized content*: two ``TokenSeq``
handles (or a handle and any token sequence) are equal exactly when their
canonical int32 arrays are element-wise equal — the property the hypothesis
suite pins across dtypes, slices, and empty sequences.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional
from zlib import crc32

import numpy as np

_INT32_ITEMSIZE = 4


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


class TokenSeq:
    """An immutable, interned token sequence with cached bytes and hashes.

    Construction canonicalizes eagerly (and defensively copies arrays the
    caller could still mutate, unless ``copy=False`` promises ownership);
    bytes and hash are computed on first use and cached for the handle's
    lifetime.
    """

    __slots__ = ("arr", "_len", "_bytes", "_hash")

    def __init__(self, tokens: Any, *, copy: bool = True) -> None:
        arr = canonical_token_array(tokens)
        if copy and arr is tokens:
            # The caller handed us the canonical array itself; snapshot it
            # so later caller-side mutation cannot desync the caches.
            arr = arr.copy()
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.arr = arr
        self._len = arr.shape[0]
        self._bytes: Optional[bytes] = None
        self._hash: Optional[int] = None

    @classmethod
    def of(cls, tokens: Any) -> "TokenSeq":
        """Return ``tokens`` itself when already interned, else intern it."""
        if isinstance(tokens, TokenSeq):
            return tokens
        return cls(tokens)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenSeq(len={len(self.arr)}, hash={hash(self):#x})"

    # ------------------------------------------------------------------
    # Cached serializations
    # ------------------------------------------------------------------
    def tobytes(self) -> bytes:
        """Raw little-endian int32 bytes of the sequence (cached)."""
        data = self._bytes
        if data is None:
            data = self._bytes = self.arr.tobytes()
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
        """Content hash of ``tokens[:length]``: crc32 of its cached bytes.

        O(``length``) per call, in C, and 0 for the empty prefix.
        """
        if not 0 <= length <= len(self.arr):
            raise ValueError(
                f"prefix length must be in [0, {len(self.arr)}], got {length}"
            )
        return crc32(self.tobytes()[: length * _INT32_ITEMSIZE])
