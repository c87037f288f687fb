"""Tests for the radix tree: insert, match, split, merge, pinning."""

import numpy as np
import pytest

from repro.core.radix_tree import RadixTree, common_prefix_length
from repro.core.tokens import TokenSeq


def arr(*values):
    return np.asarray(values, dtype=np.int32)


class TestCommonPrefix:
    def test_empty(self):
        assert common_prefix_length(arr(), arr(1, 2)) == 0

    def test_disjoint(self):
        assert common_prefix_length(arr(1, 2), arr(3, 4)) == 0

    def test_partial(self):
        assert common_prefix_length(arr(1, 2, 3), arr(1, 2, 9)) == 2

    def test_full_shorter(self):
        assert common_prefix_length(arr(1, 2), arr(1, 2, 3)) == 2

    def test_identical(self):
        assert common_prefix_length(arr(1, 2, 3), arr(1, 2, 3)) == 3


class TestInsert:
    def test_insert_into_empty(self):
        tree = RadixTree()
        outcome = tree.insert(arr(1, 2, 3), now=1.0)
        assert outcome.new_leaf is outcome.end_node
        assert outcome.split_node is None
        assert outcome.new_edge_tokens == 3
        assert outcome.end_node.seq_len == 3
        tree.check_integrity()

    def test_insert_extension(self):
        tree = RadixTree()
        tree.insert(arr(1, 2), now=1.0)
        outcome = tree.insert(arr(1, 2, 3, 4), now=2.0)
        assert outcome.split_node is None
        assert outcome.new_edge_tokens == 2
        assert outcome.end_node.seq_len == 4
        assert tree.n_nodes == 2
        tree.check_integrity()

    def test_insert_divergence_splits_once(self):
        tree = RadixTree()
        tree.insert(arr(1, 2, 3, 4), now=1.0)
        outcome = tree.insert(arr(1, 2, 9, 9), now=2.0)
        assert outcome.split_node is not None
        assert outcome.split_node.seq_len == 2
        assert outcome.split_node.n_children == 2
        assert outcome.new_edge_tokens == 2  # only the fresh suffix
        assert tree.total_edge_tokens == 6  # 4 + 2, split conserves tokens
        tree.check_integrity()

    def test_insert_proper_prefix_splits_at_end(self):
        tree = RadixTree()
        tree.insert(arr(1, 2, 3, 4), now=1.0)
        outcome = tree.insert(arr(1, 2), now=2.0)
        assert outcome.split_node is not None
        assert outcome.end_node is outcome.split_node
        assert outcome.new_leaf is None
        assert outcome.new_edge_tokens == 0
        tree.check_integrity()

    def test_insert_exact_duplicate_is_noop(self):
        tree = RadixTree()
        tree.insert(arr(1, 2, 3), now=1.0)
        outcome = tree.insert(arr(1, 2, 3), now=2.0)
        assert outcome.split_node is None
        assert outcome.new_leaf is None
        assert outcome.new_edge_tokens == 0
        assert tree.n_nodes == 1

    def test_insert_divergence_at_existing_node(self):
        tree = RadixTree()
        tree.insert(arr(1, 2), now=1.0)
        tree.insert(arr(1, 2, 3), now=2.0)
        outcome = tree.insert(arr(1, 2, 7), now=3.0)
        # Divergence exactly at the (1,2) node: new leaf, no split.
        assert outcome.split_node is None
        assert outcome.new_edge_tokens == 1
        tree.check_integrity()

    def test_split_preserves_child_states(self):
        tree = RadixTree()
        first = tree.insert(arr(1, 2, 3, 4), now=1.0)
        first.end_node.has_ssm_state = True
        tree.insert(arr(1, 2, 9), now=2.0)
        # The original node's path and checkpoint must survive the split.
        match = tree.match(arr(1, 2, 3, 4))
        assert match.deepest_node.has_ssm_state
        assert match.deepest_node.seq_len == 4

    def test_interned_insert_serializes_only_to_compare_an_edge(self):
        tree = RadixTree()
        first = TokenSeq(arr(1, 2, 3))
        end = tree.insert(first, now=1.0).end_node
        extended = TokenSeq(arr(1, 2, 3, 4, 5))
        assert tree.insert(extended, now=2.0, start=end).new_edge_tokens == 2
        assert first._bytes is None and extended._bytes is None  # new leaves only
        walked = TokenSeq(arr(1, 2, 3, 4, 5, 6))
        outcome = tree.insert(walked, now=3.0)  # from the root: two edges to cross
        assert walked._bytes == walked.arr.tobytes()
        assert outcome.new_edge_tokens == 1 and outcome.split_node is None
        tree.check_integrity()


class TestMatch:
    def test_match_empty_tree(self):
        tree = RadixTree()
        match = tree.match(arr(1, 2))
        assert match.matched_len == 0 and match.path == []

    def test_match_mid_edge(self):
        tree = RadixTree()
        tree.insert(arr(1, 2, 3, 4), now=1.0)
        match = tree.match(arr(1, 2, 9))
        assert match.matched_len == 2
        assert match.path == []  # no full node reached

    def test_match_through_nodes(self):
        tree = RadixTree()
        tree.insert(arr(1, 2), now=1.0)
        tree.insert(arr(1, 2, 3, 4), now=2.0)
        match = tree.match(arr(1, 2, 3, 4, 5))
        assert match.matched_len == 4
        assert [n.seq_len for n in match.path] == [2, 4]

    def test_match_never_mutates(self):
        tree = RadixTree()
        tree.insert(arr(1, 2, 3, 4), now=1.0)
        before = tree.n_nodes
        tree.match(arr(1, 2, 9, 9))
        assert tree.n_nodes == before

    def test_deepest_ssm_node_respects_cap(self):
        tree = RadixTree()
        a = tree.insert(arr(1, 2), now=1.0).end_node
        b = tree.insert(arr(1, 2, 3, 4), now=2.0).end_node
        a.has_ssm_state = True
        b.has_ssm_state = True
        match = tree.match(arr(1, 2, 3, 4))
        assert match.deepest_ssm_node(max_seq_len=4).seq_len == 4
        assert match.deepest_ssm_node(max_seq_len=3).seq_len == 2
        assert match.deepest_ssm_node(max_seq_len=1) is None


class TestEvictionMechanics:
    def _chain(self):
        tree = RadixTree()
        tree.insert(arr(1, 2), now=1.0)
        tree.insert(arr(1, 2, 3, 4), now=2.0)
        tree.insert(arr(1, 2, 3, 4, 5, 6), now=3.0)
        return tree

    def test_remove_leaf(self):
        tree = self._chain()
        leaf = tree.match(arr(1, 2, 3, 4, 5, 6)).deepest_node
        tree.remove_leaf(leaf)
        assert tree.match(arr(1, 2, 3, 4, 5, 6)).matched_len == 4
        tree.check_integrity()

    def test_remove_leaf_rejects_interior(self):
        tree = self._chain()
        interior = tree.match(arr(1, 2)).deepest_node
        with pytest.raises(ValueError, match="not a leaf"):
            tree.remove_leaf(interior)

    def test_merge_into_child_absorbs_kvs(self):
        tree = self._chain()
        middle = tree.match(arr(1, 2, 3, 4)).deepest_node
        tokens_before = tree.total_edge_tokens
        child = tree.merge_into_child(middle)
        assert tree.total_edge_tokens == tokens_before  # KVs absorbed, not freed
        assert child.seq_len == 6
        assert child.kv_tokens == 4  # absorbed 2 + own 2
        # Path lookups still work end to end.
        assert tree.match(arr(1, 2, 3, 4, 5, 6)).matched_len == 6
        tree.check_integrity()

    def test_merge_rejects_multi_child(self):
        tree = self._chain()
        tree.insert(arr(1, 2, 9), now=4.0)
        branching = tree.match(arr(1, 2)).deepest_node
        with pytest.raises(ValueError, match="children"):
            tree.merge_into_child(branching)

    def test_root_protected(self):
        tree = self._chain()
        with pytest.raises(ValueError):
            tree.remove_leaf(tree.root)
        with pytest.raises(ValueError):
            tree.merge_into_child(tree.root)


class TestPinning:
    def test_pin_blocks_removal_and_merge(self):
        tree = RadixTree()
        tree.insert(arr(1, 2), now=1.0)
        end = tree.insert(arr(1, 2, 3, 4), now=2.0).end_node
        tree.pin_path(end)
        middle = tree.match(arr(1, 2)).deepest_node
        with pytest.raises(ValueError, match="pinned"):
            tree.remove_leaf(end)
        with pytest.raises(ValueError, match="pinned"):
            tree.merge_into_child(middle)
        tree.unpin_path(end)
        tree.remove_leaf(end)
        tree.check_integrity()

    def test_unbalanced_unpin_raises(self):
        tree = RadixTree()
        end = tree.insert(arr(1, 2), now=1.0).end_node
        with pytest.raises(ValueError, match="unbalanced"):
            tree.unpin_path(end)

    def test_split_inherits_pin(self):
        tree = RadixTree()
        end = tree.insert(arr(1, 2, 3, 4), now=1.0).end_node
        tree.pin_path(end)
        outcome = tree.insert(arr(1, 2, 9), now=2.0)
        assert outcome.split_node.is_pinned  # sits on the pinned path
        tree.unpin_path(end)
        assert not outcome.split_node.is_pinned


class TestClone:
    def test_clone_is_deep_and_equal(self):
        tree = RadixTree()
        tree.insert(arr(1, 2), now=1.0).end_node.has_ssm_state = True
        tree.insert(arr(1, 2, 3), now=2.0)
        tree.insert(arr(9, 9), now=3.0)
        copy = tree.clone()
        copy.check_integrity()
        assert copy.n_nodes == tree.n_nodes
        assert copy.total_edge_tokens == tree.total_edge_tokens
        # Checkpoints and timestamps survive.
        original = tree.match(arr(1, 2)).deepest_node
        mirrored = copy.match(arr(1, 2)).deepest_node
        assert mirrored.has_ssm_state == original.has_ssm_state
        assert mirrored.last_access == original.last_access
        # Mutating the copy leaves the original intact.
        copy.remove_leaf(copy.match(arr(9, 9)).deepest_node)
        assert tree.match(arr(9, 9)).matched_len == 2

    def test_clone_drops_pins(self):
        tree = RadixTree()
        end = tree.insert(arr(1, 2), now=1.0).end_node
        tree.pin_path(end)
        copy = tree.clone()
        assert all(not n.is_pinned for n in copy.iter_nodes())


class TestPathTokens:
    def test_path_reconstruction(self):
        tree = RadixTree()
        tree.insert(arr(5, 6, 7), now=1.0)
        end = tree.insert(arr(5, 6, 7, 8, 9), now=2.0).end_node
        np.testing.assert_array_equal(end.path_tokens(), arr(5, 6, 7, 8, 9))
