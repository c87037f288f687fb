"""Property-based tests: SecondaryStore vs a brute-force dict reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.latency import LatencyModel
from repro.models.presets import hybrid_7b
from repro.tiering.secondary import SecondaryStore

# Small alphabet + short lengths force prefix collisions and bucket reuse.
prefix = st.lists(st.integers(0, 2), min_size=1, max_size=8)


@st.composite
def op_stream(draw):
    ops = []
    n = draw(st.integers(1, 25))
    for step in range(n):
        kind = draw(st.sampled_from(["insert", "remove", "match"]))
        ops.append((kind, tuple(draw(prefix)), draw(st.integers(1, 50))))
    return ops


class TestSecondaryStoreProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops=op_stream())
    def test_matches_unbounded_reference(self, ops):
        """With unlimited capacity the store is an exact prefix dictionary."""
        store = SecondaryStore(10**9)
        reference: dict[tuple, int] = {}
        clock = 0.0
        for kind, tokens, nbytes in ops:
            clock += 1.0
            arr = np.asarray(tokens, dtype=np.int32)
            if kind == "insert":
                assert store.insert(arr, nbytes, now=clock)
                reference[tokens] = nbytes
            elif kind == "remove":
                removed = store.remove(arr)
                if tokens in reference:
                    assert removed is not None and removed.nbytes == reference.pop(tokens)
                else:
                    assert removed is None
            else:  # match: longest stored proper prefix
                hit = store.longest_match(arr, max_len=len(arr), now=clock)
                expected = max(
                    (len(p) for p in reference if p == tokens[: len(p)]),
                    default=0,
                )
                assert (hit.seq_len if hit else 0) == expected
            assert store.used_bytes == sum(reference.values())
            assert store.n_entries == len(reference)

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(st.tuples(prefix, st.integers(50, 200)), min_size=1, max_size=30),
        capacity=st.integers(100, 800),
        policy=st.sampled_from(["lru", "flop_aware"]),
    )
    def test_capacity_never_exceeded(self, ops, capacity, policy):
        store = SecondaryStore(capacity, policy=policy)
        clock = 0.0
        for tokens, nbytes in ops:
            clock += 1.0
            store.insert(
                np.asarray(tokens, dtype=np.int32), nbytes, now=clock,
                flop_efficiency=float(nbytes % 7),
            )
            store.check_integrity()

    @settings(max_examples=40, deadline=None)
    @given(
        seq=st.lists(st.integers(0, 30000), min_size=2, max_size=64),
        cuts=st.sets(st.integers(1, 63), min_size=1, max_size=6),
    )
    def test_longest_match_is_deepest_stored_cut(self, seq, cuts):
        store = SecondaryStore(10**9)
        arr = np.asarray(seq, dtype=np.int32)
        valid_cuts = sorted(c for c in cuts if c < len(arr))
        for cut in valid_cuts:
            store.insert(arr[:cut], 10, now=0.0)
        hit = store.longest_match(arr, max_len=len(arr) - 1, now=1.0)
        if valid_cuts:
            assert hit is not None and hit.seq_len == max(valid_cuts)
        else:
            assert hit is None


class TestLatencyProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seq_len=st.integers(2, 30000),
        reuse_frac=st.floats(0.0, 1.0),
        reused_bytes=st.integers(0, 10**10),
    )
    def test_reuse_never_slower_without_fetch(self, seq_len, reuse_frac, reused_bytes):
        """More compute reuse (at zero fetch cost) never increases prefill time."""
        model = hybrid_7b()
        latency = LatencyModel()
        reused = int(reuse_frac * (seq_len - 1))
        with_reuse = latency.prefill_seconds(model, seq_len, reused, 0)
        without = latency.prefill_seconds(model, seq_len, 0, 0)
        assert with_reuse <= without + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        seq_len=st.integers(2, 30000),
        reused_bytes=st.integers(1, 10**10),
        secondary_frac=st.floats(0.0, 1.0),
    )
    def test_secondary_fetch_monotone(self, seq_len, reused_bytes, secondary_frac):
        """Shifting fetched bytes to the slower tier never speeds things up."""
        model = hybrid_7b()
        latency = LatencyModel()
        secondary = int(secondary_frac * reused_bytes)
        mixed = latency.prefill_seconds(
            model, seq_len, seq_len // 2, reused_bytes, secondary_bytes=secondary
        )
        all_primary = latency.prefill_seconds(
            model, seq_len, seq_len // 2, reused_bytes, secondary_bytes=0
        )
        assert mixed >= all_primary - 1e-12
