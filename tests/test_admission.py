"""Tests for speculative insertion and the admission taxonomy (section 4.1),
through MarconiCache."""

import numpy as np

from repro.core.cache import MarconiCache
from repro.core.radix_tree import RadixTree


def arr(*values):
    return np.asarray(values, dtype=np.int32)


class TestSpeculativeInsert:
    """``begin`` inserts the input path and reports, as its checkpoint
    positions, the branch point that insertion found: the one place a
    "purely input" prefix is worth a recurrent checkpoint."""

    def _cache(self, hybrid, *committed):
        cache = MarconiCache(hybrid, capacity_bytes=int(50e9), alpha=1.0)
        for i, seq in enumerate(committed):
            cache.begin(seq[:-1], float(i)).commit(seq, float(i) + 0.5)
        return cache

    def test_empty_tree_no_split(self, hybrid):
        cache = self._cache(hybrid)
        session = cache.begin(arr(1, 2, 3), now=1.0)
        assert session.checkpoint_positions == []
        assert session.hit_tokens == 0
        assert cache.tree.n_nodes == 1

    def test_divergence_mid_edge_reports_branch(self, hybrid):
        cache = self._cache(hybrid, arr(1, 2, 3, 4, 5))
        session = cache.begin(arr(1, 2, 9), now=2.0)
        assert session.checkpoint_positions == [2]
        branch = [n for n in cache.tree.iter_nodes() if n.seq_len == 2]
        assert len(branch) == 1 and branch[0].has_ssm_state
        assert branch[0].n_children == 2

    def test_proper_prefix_reports_branch_at_end(self, hybrid):
        cache = self._cache(hybrid, arr(1, 2, 3, 4, 5))
        session = cache.begin(arr(1, 2, 3), now=2.0)
        assert session.checkpoint_positions == [3]
        assert session.hit_tokens == 0  # nothing was checkpointed at 2 or below

    def test_extension_no_split(self, hybrid):
        cache = self._cache(hybrid, arr(1, 2, 3))
        before = cache.tree.n_nodes
        session = cache.begin(arr(1, 2, 3, 4, 5), now=2.0)
        assert session.checkpoint_positions == []
        assert session.hit_tokens == 3  # input-output reuse of the whole round
        assert cache.tree.n_nodes == before + 1

    def test_exact_node_match_no_split(self, hybrid):
        cache = self._cache(hybrid, arr(1, 2, 3, 4, 5))
        before = cache.tree.n_nodes
        session = cache.begin(arr(1, 2, 3, 4, 5), now=2.0)
        assert session.checkpoint_positions == []
        assert cache.tree.n_nodes == before

    def test_never_mutates(self, hybrid):
        """An aborted begin rolls its speculative insertion back: the
        split, the branch checkpoint and the new edge's bytes all go."""
        cache = self._cache(hybrid, arr(1, 2, 3, 4, 5))
        before_nodes = cache.tree.n_nodes
        before_used = cache.used_bytes
        session = cache.begin(arr(1, 2, 9, 9), now=2.0)
        assert session.checkpoint_positions == [2]
        assert cache.tree.n_nodes == before_nodes + 2
        session.abort()
        assert cache.tree.n_nodes == before_nodes
        assert cache.used_bytes == before_used
        assert not any(n.seq_len == 2 for n in cache.tree.iter_nodes())

    def test_pure_transformer_checkpoints_no_branch(self, transformer):
        """The insertion still splits the edge, but without recurrent layers
        there is no state to checkpoint at the branch."""
        cache = MarconiCache(transformer, capacity_bytes=int(50e9), alpha=1.0)
        cache.begin(arr(1, 2, 3, 4), 0.0).commit(arr(1, 2, 3, 4, 5), 0.5)
        session = cache.begin(arr(1, 2, 9), now=1.0)
        assert session.checkpoint_positions == []
        assert session.hit_tokens == 2
        assert any(n.seq_len == 2 for n in cache.tree.iter_nodes())

    def test_agrees_with_actual_insert(self, hybrid, tokens):
        """The reported position is exactly the split a plain insert of the
        same input into a tree of the same history makes."""
        rng = np.random.default_rng(7)
        cache = MarconiCache(hybrid, capacity_bytes=int(50e9), alpha=1.0)
        shadow = RadixTree()
        base = tokens(64, seed=1)
        for i in range(50):
            cut = int(rng.integers(1, 64))
            candidate = np.concatenate([base[:cut], tokens(int(rng.integers(1, 20)), seed=100 + i)])
            session = cache.begin(candidate, float(i))
            outcome = shadow.insert(candidate, now=float(i))
            split = outcome.split_node
            assert session.checkpoint_positions == ([] if split is None else [split.seq_len])
            full = np.concatenate([candidate, tokens(5, seed=500 + i)])
            session.commit(full, float(i) + 0.5)
            shadow.insert(full, now=float(i) + 0.5)
            assert cache.tree.n_nodes == shadow.n_nodes


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
