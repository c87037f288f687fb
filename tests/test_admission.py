"""Tests for speculative insertion and the admission taxonomy (section 4.1)."""

import numpy as np

from repro.core.admission import speculative_insert
from repro.core.cache import MarconiCache
from repro.core.radix_tree import RadixTree


def arr(*values):
    return np.asarray(values, dtype=np.int32)


class TestSpeculativeInsert:
    def test_empty_tree_no_split(self):
        tree = RadixTree()
        report = speculative_insert(tree, arr(1, 2, 3))
        assert not report.would_split_edge
        assert report.branch_position is None
        assert report.matched_len == 0

    def test_divergence_mid_edge_reports_branch(self):
        tree = RadixTree()
        tree.insert(arr(1, 2, 3, 4), now=1.0)
        report = speculative_insert(tree, arr(1, 2, 9))
        assert report.would_split_edge
        assert report.branch_position == 2

    def test_proper_prefix_reports_branch_at_end(self):
        tree = RadixTree()
        tree.insert(arr(1, 2, 3, 4), now=1.0)
        report = speculative_insert(tree, arr(1, 2, 3))
        assert report.would_split_edge
        assert report.branch_position == 3

    def test_extension_no_split(self):
        tree = RadixTree()
        tree.insert(arr(1, 2), now=1.0)
        report = speculative_insert(tree, arr(1, 2, 3, 4))
        assert not report.would_split_edge
        assert report.matched_len == 2

    def test_exact_node_match_no_split(self):
        tree = RadixTree()
        tree.insert(arr(1, 2), now=1.0)
        report = speculative_insert(tree, arr(1, 2))
        assert not report.would_split_edge
        assert report.matched_len == 2

    def test_never_mutates(self):
        tree = RadixTree()
        tree.insert(arr(1, 2, 3, 4), now=1.0)
        before = tree.n_nodes
        speculative_insert(tree, arr(1, 2, 9, 9))
        assert tree.n_nodes == before

    def test_agrees_with_actual_insert(self, tokens):
        """The dry run must predict exactly what insert() then does."""
        rng = np.random.default_rng(7)
        tree = RadixTree()
        shadow = RadixTree()
        base = tokens(64, seed=1)
        for i in range(50):
            cut = int(rng.integers(1, 64))
            candidate = np.concatenate([base[:cut], tokens(int(rng.integers(1, 20)), seed=100 + i)])
            report = speculative_insert(tree, candidate)
            outcome = tree.insert(candidate, now=float(i))
            assert report.would_split_edge == (outcome.split_node is not None)
            if report.would_split_edge:
                assert report.branch_position == outcome.split_node.seq_len
            shadow.insert(candidate, now=float(i))


class TestAdmissionTaxonomy:
    """End-to-end admission behaviour through MarconiCache."""

    def _cache(self, hybrid):
        return MarconiCache(hybrid, capacity_bytes=int(50e9), alpha=1.0)

    def test_purely_input_benefits_from_third_occurrence(self, hybrid, tokens):
        """Occurrence 1 misses, occurrence 2 misses but checkpoints the
        branch, occurrence 3 hits the shared prefix (section 4.1 tradeoffs)."""
        cache = self._cache(hybrid)
        shared = tokens(400, seed=1)
        hits = []
        for i in range(3):
            inp = np.concatenate([shared, tokens(100, seed=10 + i)])
            s = cache.begin(inp, now=float(i))
            hits.append(s.hit_tokens)
            s.commit(np.concatenate([inp, tokens(50, seed=20 + i)]), float(i) + 0.5)
        assert hits == [0, 0, 400]

    def test_branch_checkpoint_position_reported(self, hybrid, tokens):
        cache = self._cache(hybrid)
        shared = tokens(300, seed=2)
        first = np.concatenate([shared, tokens(80, seed=30)])
        s = cache.begin(first, 0.0)
        assert s.checkpoint_positions == []
        s.commit(np.concatenate([first, tokens(40, seed=31)]), 0.5)
        second = np.concatenate([shared, tokens(80, seed=32)])
        s2 = cache.begin(second, 1.0)
        assert s2.checkpoint_positions == [300]

    def test_input_output_reuse_is_instant(self, hybrid, tokens):
        """Conversation history: round 2 hits round 1's full sequence."""
        cache = self._cache(hybrid)
        round1 = tokens(200, seed=3)
        s = cache.begin(round1, 0.0)
        full1 = np.concatenate([round1, tokens(60, seed=4)])
        s.commit(full1, 0.5)
        round2 = np.concatenate([full1, tokens(30, seed=5)])
        s2 = cache.begin(round2, 1.0)
        assert s2.hit_tokens == len(full1)

    def test_at_most_two_checkpoints_per_request(self, hybrid, tokens):
        """Judicious admission: <= 2 recurrent states per sequence (branch +
        last decoded token)."""
        cache = self._cache(hybrid)
        shared = tokens(300, seed=6)
        for i in range(4):
            inp = np.concatenate([shared, tokens(100, seed=40 + i)])
            s = cache.begin(inp, float(i))
            before = sum(1 for n in cache.tree.iter_nodes() if n.has_ssm_state)
            s.commit(np.concatenate([inp, tokens(50, seed=50 + i)]), float(i) + 0.5)
            after = sum(1 for n in cache.tree.iter_nodes() if n.has_ssm_state)
            assert after - before <= 2

    def test_full_input_exact_match_capped(self, hybrid, tokens):
        """A hit can never cover the whole input (the last token must be
        prefilled to produce first-token logits)."""
        cache = self._cache(hybrid)
        seq = tokens(100, seed=7)
        s = cache.begin(seq, 0.0)
        s.commit(np.concatenate([seq, tokens(10, seed=8)]), 0.5)
        s2 = cache.begin(seq, 1.0)  # identical input
        assert s2.hit_tokens < len(seq)

    def test_pure_transformer_token_granular_hits(self, transformer, tokens):
        """Without recurrent layers, hits are raw common-prefix length."""
        cache = MarconiCache(transformer, capacity_bytes=int(50e9), alpha=1.0)
        seq = tokens(100, seed=9)
        s = cache.begin(seq, 0.0)
        s.commit(np.concatenate([seq, tokens(20, seed=10)]), 0.5)
        # Diverge after 57 tokens: KVs reusable at token granularity.
        probe = np.concatenate([seq[:57], tokens(43, seed=11)])
        s2 = cache.begin(probe, 1.0)
        assert s2.hit_tokens == 57
        # And no recurrent checkpoints exist anywhere.
        assert all(not n.has_ssm_state for n in cache.tree.iter_nodes())
