"""Property-based tests: cache and tree invariants under random workloads."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.cache import MarconiCache
from repro.core.radix_tree import RadixTree
from repro.models.presets import tiny_test_model

# Small alphabet makes prefix collisions (splits, extensions) likely.
token_seq = st.lists(st.integers(0, 3), min_size=1, max_size=24)


@st.composite
def request_stream(draw):
    """A list of (input, output) pairs with organic prefix sharing."""
    n = draw(st.integers(2, 14))
    requests = []
    history: list[list[int]] = []
    for _ in range(n):
        if history and draw(st.booleans()):
            base = draw(st.sampled_from(history))
            cut = draw(st.integers(1, len(base)))
            inp = base[:cut] + draw(token_seq)
        else:
            inp = draw(token_seq)
        out = draw(token_seq)
        requests.append((inp, out))
        history.append(inp + out)
    return requests


class TestTreeInvariants:
    @given(seqs=st.lists(token_seq, min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_insert_then_match_roundtrip(self, seqs):
        tree = RadixTree()
        for i, seq in enumerate(seqs):
            tree.insert(np.asarray(seq, dtype=np.int32), now=float(i))
        tree.check_integrity()
        for seq in seqs:
            arr = np.asarray(seq, dtype=np.int32)
            match = tree.match(arr)
            assert match.matched_len == len(seq)

    @given(seqs=st.lists(token_seq, min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_token_conservation(self, seqs):
        """Total edge tokens equals the trie's distinct-prefix token count."""
        tree = RadixTree()
        for i, seq in enumerate(seqs):
            tree.insert(np.asarray(seq, dtype=np.int32), now=float(i))
        prefixes = set()
        for seq in seqs:
            for k in range(1, len(seq) + 1):
                prefixes.add(tuple(seq[:k]))
        assert tree.total_edge_tokens == len(prefixes)

    @given(seqs=st.lists(token_seq, min_size=2, max_size=16), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_eviction_preserves_remaining_paths(self, seqs, data):
        tree = RadixTree()
        for i, seq in enumerate(seqs):
            tree.insert(np.asarray(seq, dtype=np.int32), now=float(i))
        # Evict a random half of the evictable nodes.
        for _ in range(len(seqs)):
            nodes = [n for n in tree.iter_nodes() if n.n_children <= 1]
            if not nodes:
                break
            node = data.draw(st.sampled_from(nodes))
            if node.is_leaf:
                tree.remove_leaf(node)
            else:
                tree.merge_into_child(node)
            tree.check_integrity()


class TestCacheInvariants:
    @given(requests=request_stream(), capacity_kb=st.integers(1, 500))
    @settings(max_examples=50, deadline=None)
    def test_accounting_and_capacity(self, requests, capacity_kb):
        """used_bytes always equals the recomputed sum and never exceeds
        capacity after admission settles."""
        model = tiny_test_model()
        cache = MarconiCache(model, capacity_bytes=capacity_kb * 1024, alpha=1.0)
        for i, (inp, out) in enumerate(requests):
            arr_in = np.asarray(inp, dtype=np.int32)
            arr_full = np.asarray(inp + out, dtype=np.int32)
            s = cache.begin(arr_in, float(i))
            assert 0 <= s.hit_tokens < len(arr_in)
            s.commit(arr_full, float(i) + 0.5)
            cache.check_integrity()

    @given(requests=request_stream())
    @settings(max_examples=50, deadline=None)
    def test_hits_are_true_prefixes(self, requests):
        """Any reported hit must correspond to a previously seen sequence
        prefix of the exact same tokens."""
        model = tiny_test_model()
        cache = MarconiCache(model, capacity_bytes=int(1e9), alpha=1.0)
        seen_prefixes: set[tuple] = set()
        for i, (inp, out) in enumerate(requests):
            arr_in = np.asarray(inp, dtype=np.int32)
            s = cache.begin(arr_in, float(i))
            if s.hit_tokens > 0:
                assert tuple(inp[: s.hit_tokens]) in seen_prefixes
            full = inp + out
            s.commit(np.asarray(full, dtype=np.int32), float(i) + 0.5)
            for k in range(1, len(full) + 1):
                seen_prefixes.add(tuple(full[:k]))

    @given(
        requests=request_stream(),
        capacity_kb=st.integers(1, 500),
        eviction=st.sampled_from(["flop_aware", "lru", "gdsf", "gds", "lfu", "lru_k"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_index_matches_full_rescan(self, requests, capacity_kb, eviction):
        """The core invariant of the incremental-eviction refactor: after
        every begin/commit (and the evictions they trigger), the maintained
        index's candidate set is exactly what a from-scratch
        ``_collect_candidates()`` rebuild would produce — same nodes, same
        cached freeable bytes, FLOP efficiencies, and recency keys — and
        byte accounting still closes."""
        model = tiny_test_model()
        cache = MarconiCache(
            model, capacity_bytes=capacity_kb * 1024, eviction=eviction, alpha=1.0
        )

        def check():
            index = cache.eviction_index
            assert index is not None
            maintained = {
                c.node.node_id: (
                    c.freeable_bytes,
                    c.flop_efficiency,
                    c.last_access,
                    c.is_leaf,
                    c.sort_key,
                )
                for c in index.candidates()
            }
            rebuilt = {
                c.node.node_id: (
                    c.freeable_bytes,
                    c.flop_efficiency,
                    c.last_access,
                    c.is_leaf,
                    c.sort_key,
                )
                for c in cache._collect_candidates()
            }
            assert maintained == rebuilt
            cache.check_integrity()

        for i, (inp, out) in enumerate(requests):
            s = cache.begin(np.asarray(inp, dtype=np.int32), float(i))
            check()
            s.commit(np.asarray(inp + out, dtype=np.int32), float(i) + 0.5)
            check()

    @given(
        requests=request_stream(),
        capacity_kb=st.integers(1, 100),
        eviction=st.sampled_from(["flop_aware", "lru", "gdsf", "gds", "lfu", "lru_k"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_victim_is_the_policy_choice_over_a_rescan(
        self, requests, capacity_kb, eviction
    ):
        """Index-backed selection must pick, victim by victim inside every
        eviction episode, what the policy picks from a from-scratch
        ``_collect_candidates()`` scan of the tree at that moment."""

        class CheckedCache(MarconiCache):
            def _apply_eviction(self, victim):
                reference = self.policy.select_victim(self._collect_candidates())
                assert victim.node is reference.node
                super()._apply_eviction(victim)

        cache = CheckedCache(
            tiny_test_model(),
            capacity_bytes=capacity_kb * 1024,
            eviction=eviction,
            alpha=1.0,
        )
        for i, (inp, out) in enumerate(requests):
            s = cache.begin(np.asarray(inp, dtype=np.int32), float(i))
            s.commit(np.asarray(inp + out, dtype=np.int32), float(i) + 0.5)

    @given(requests=request_stream())
    @settings(max_examples=30, deadline=None)
    def test_stats_consistency(self, requests):
        model = tiny_test_model()
        cache = MarconiCache(model, capacity_bytes=int(1e9), alpha=0.5)
        total_input = 0
        total_hit = 0
        for i, (inp, out) in enumerate(requests):
            s = cache.begin(np.asarray(inp, dtype=np.int32), float(i))
            total_input += len(inp)
            total_hit += s.hit_tokens
            s.commit(np.asarray(inp + out, dtype=np.int32), float(i) + 0.5)
        assert cache.stats.input_tokens == total_input
        assert cache.stats.hit_tokens == total_hit
        assert cache.stats.lookups == len(requests)
