"""Property tests for :class:`repro.core.tokens.TokenSeq` interning.

The PR 6 hot-path campaign made ``TokenSeq`` the canonical token handle
on every probe path (``RadixTree.match``/``insert``, ``probe_hit_tokens``,
``PrefixDirectory.lookup``); these hypothesis suites pin the contract the
optimization relies on: a ``TokenSeq`` is *observationally identical* to
the raw numpy canonicalization it caches — same array, same equality, same
hashes — across input dtypes, non-contiguous slices, and the empty
sequence, and routing probes see identical hits whether handed raw tokens
or the interned handle.
"""

from __future__ import annotations

from zlib import crc32

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.router import probe_hit_tokens
from repro.cluster.sharded_directory import ShardedPrefixDirectory
from repro.core.cache import MarconiCache
from repro.core.tokens import TokenSeq, canonical_token_array
from repro.models.memory import node_state_bytes
from repro.models.presets import hybrid_7b

# Values stay within int32 (the canonical dtype) so every input dtype
# round-trips losslessly through canonicalization.
token_lists = st.lists(
    st.integers(min_value=0, max_value=2**31 - 1), min_size=0, max_size=64
)

source_dtypes = st.sampled_from([np.int32, np.int64, np.uint16, np.int16, np.uint8])


@st.composite
def token_arrays(draw):
    """1-D integer arrays in assorted dtypes, sometimes non-contiguous."""
    dtype = draw(source_dtypes)
    info = np.iinfo(dtype)
    values = draw(
        st.lists(
            st.integers(
                min_value=max(0, info.min), max_value=min(info.max, 2**31 - 1)
            ),
            min_size=0,
            max_size=64,
        )
    )
    arr = np.asarray(values, dtype=dtype)
    if draw(st.booleans()) and len(arr) >= 2:
        # Strided view: canonicalization must copy it contiguous.
        arr = np.repeat(arr, 2)[::2]
    return arr


class TestCanonicalizationAgreement:
    @given(arr=token_arrays())
    @settings(max_examples=200, deadline=None)
    def test_interned_array_is_the_canonical_array(self, arr):
        seq = TokenSeq(arr)
        canon = canonical_token_array(np.asarray(arr, dtype=np.int32))
        assert seq.arr.dtype == np.int32
        assert seq.arr.ndim == 1
        assert seq.arr.flags.c_contiguous
        assert np.array_equal(seq.arr, canon)
        assert len(seq) == len(canon)

    @given(values=token_lists)
    @settings(max_examples=200, deadline=None)
    def test_equality_and_hash_track_content(self, values):
        a = TokenSeq(values)
        b = TokenSeq(np.asarray(values, dtype=np.int64))
        assert a == b
        assert hash(a) == hash(b)
        # Equality also holds against the raw canonical array and the list.
        assert a == np.asarray(values, dtype=np.int32)
        assert a == values
        # Perturbed content must not compare equal.
        if values:
            changed = list(values)
            changed[0] ^= 1
            assert a != TokenSeq(changed)

    @given(values=token_lists)
    @settings(max_examples=200, deadline=None)
    def test_bytes_and_prefix_hash_match_numpy(self, values):
        seq = TokenSeq(values)
        canon = np.asarray(values, dtype=np.int32)
        assert seq.tobytes() == canon.tobytes()
        # Every prefix hash is the crc32 of that prefix's canonical bytes,
        # which is also what a fresh interning of the prefix computes.
        for length in range(len(values) + 1):
            expected = crc32(canon[:length].tobytes())
            assert seq.prefix_hash(length) == expected
            assert TokenSeq(values[:length]).prefix_hash(length) == expected

    @given(values=token_lists)
    @settings(max_examples=100, deadline=None)
    def test_region_key_agrees_across_input_types(self, values):
        """The sharded directory keys a request's region the same whether
        it arrives as an interned handle, an ndarray or a list."""
        directory = ShardedPrefixDirectory(region_tokens=4)
        canon = np.asarray(values, dtype=np.int32)
        expected = crc32(canon[:4].tobytes())
        for tokens in (TokenSeq(values), canon, list(values)):
            assert directory._region_key(tokens) == expected

    @given(arr=token_arrays())
    @settings(max_examples=100, deadline=None)
    def test_of_is_idempotent_and_interning_stable(self, arr):
        seq = TokenSeq.of(arr)
        assert TokenSeq.of(seq) is seq
        # Prefix handles view the interned array: it must be write-protected.
        assert not seq.arr.flags.writeable

    def test_empty_sequence(self):
        seq = TokenSeq([])
        assert len(seq) == 0
        assert seq.tobytes() == b""
        assert seq == TokenSeq(np.asarray([], dtype=np.int64))
        assert seq.prefix_hash(0) == 0
        with pytest.raises(ValueError):
            seq.prefix_hash(1)

    def test_defensive_copy_insulates_caches(self):
        arr = np.arange(8, dtype=np.int32)
        seq = TokenSeq(arr)  # the one copy (into ``data``) is the snapshot
        arr[0] = 999
        assert seq.arr[0] == 0
        assert not np.shares_memory(seq.arr, arr)
        assert seq.tobytes() is seq.data == np.arange(8, dtype=np.int32).tobytes()


class TestPrefixHandles:
    """``seq.prefix(k)`` is observationally ``TokenSeq(content[:k])`` while
    owning no bytes: one buffer serves every round of a session."""

    @given(values=token_lists, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_prefix_is_indistinguishable_from_interning_the_slice(self, values, data):
        seq = TokenSeq(values)
        k = data.draw(st.integers(0, len(values)))
        view = seq.prefix(k)
        fresh = TokenSeq(values[:k])
        assert len(view) == k
        assert view == fresh and fresh == view
        assert hash(view) == hash(fresh)
        assert view.tobytes() == fresh.tobytes()
        assert view == values[:k]
        assert np.array_equal(np.asarray(view), fresh.arr)
        for j in range(k + 1):
            assert view.prefix_hash(j) == fresh.prefix_hash(j)
        with pytest.raises(ValueError):
            view.prefix_hash(k + 1)  # bounded by the handle, not its bytes
        if k < len(values):
            assert view != seq

    @given(values=token_lists, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_prefixes_share_the_roots_bytes(self, values, data):
        seq = TokenSeq(values)
        assert seq.prefix(len(seq)) is seq
        k = data.draw(st.integers(0, len(values)))
        j = data.draw(st.integers(0, k))
        nested = seq.prefix(k).prefix(j)
        assert nested.data is seq.data
        assert nested == TokenSeq(values[:j])
        assert not nested.arr.flags.writeable
        if j:
            assert np.shares_memory(nested.arr, seq.arr)
        for bad in (-1, k + 1):
            with pytest.raises(ValueError):
                seq.prefix(k).prefix(bad)

    def test_arr_is_a_read_only_view_of_the_bytes(self):
        seq = TokenSeq([1, 2, 3, 4])
        for handle in (seq, seq.prefix(2)):
            with pytest.raises(ValueError):
                handle.arr[0] = 9
            with pytest.raises(ValueError):
                handle.arr.setflags(write=True)

    def test_a_handle_outlives_its_callers_array(self):
        arr = np.arange(8, dtype=np.int32)
        head = TokenSeq(arr).prefix(5)
        arr[:] = -1
        del arr
        assert head == [0, 1, 2, 3, 4]
        assert head.tobytes() == np.arange(5, dtype=np.int32).tobytes()
        assert head.prefix_hash(5) == crc32(np.arange(5, dtype=np.int32).tobytes())


class TestProbeHitTokensUnchanged:
    """Interning must not change what routing probes observe."""

    @pytest.fixture(scope="class")
    def warm_cache(self):
        model = hybrid_7b()
        cache = MarconiCache(model, 32 * node_state_bytes(model, 4000, True))
        rng = np.random.default_rng(5)
        self_prefix = rng.integers(0, 1000, 256, dtype=np.int32)
        sequences = []
        for _ in range(12):
            tail = rng.integers(0, 1000, int(rng.integers(16, 512)), dtype=np.int32)
            full = np.concatenate([self_prefix, tail])
            session = cache.begin(full, now=0.0)
            session.commit(full, now=1.0)
            sequences.append(full)
        return cache, sequences

    def test_probe_agrees_across_input_forms(self, warm_cache):
        cache, sequences = warm_cache
        rng = np.random.default_rng(9)
        queries = list(sequences)
        # Also probe prefixes, extensions, and misses.
        for seq in sequences[:4]:
            queries.append(seq[: len(seq) // 2])
            queries.append(
                np.concatenate([seq, rng.integers(0, 1000, 32, dtype=np.int32)])
            )
        queries.append(rng.integers(2000, 3000, 64, dtype=np.int32))
        for query in queries:
            if len(query) == 0:
                continue
            raw = probe_hit_tokens(cache, query.copy())
            interned = probe_hit_tokens(cache, TokenSeq(query))
            as_list = probe_hit_tokens(cache, query.astype(np.int64))
            assert raw == interned == as_list
