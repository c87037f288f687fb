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
        """What is left of "serialize only to compare": nothing is serialized
        at all.  Rounds of a session are prefix handles of one buffer; a
        commit resumed from the begin-time end node copies only its new
        suffix into the tree, and a walk from the root compares every edge
        against the session's bytes where they lie."""
        tree = RadixTree()
        session = TokenSeq(arr(1, 2, 3, 4, 5, 6, 7))
        first = session.prefix(3)
        end = tree.insert(first, now=1.0).end_node
        extended = session.prefix(5)
        outcome = tree.insert(extended, now=2.0, start=end)
        assert outcome.new_edge_tokens == 2
        assert outcome.new_leaf.data == arr(4, 5).tobytes()  # the suffix only
        walked = session.prefix(6)
        outcome = tree.insert(walked, now=3.0)  # from the root: two edges to cross
        assert outcome.new_edge_tokens == 1 and outcome.split_node is None
        assert outcome.new_leaf.data == arr(6).tobytes()
        # No handle was sliced to its own bytes, and no edge views the buffer.
        assert first._bytes is None and extended._bytes is None
        assert walked._bytes is None
        for node in tree.iter_nodes():
            assert not np.shares_memory(node.edge_tokens, session.arr)
        tree.check_integrity()

    def test_match_and_insert_stop_at_a_prefix_handles_length(self):
        """A prefix handle's bytes run past its end; an edge that continues
        into that tail must not be matched through."""
        tree = RadixTree()
        session = TokenSeq(arr(1, 2, 3, 4, 5, 6))
        tree.insert(session, now=1.0)
        match = tree.match(session.prefix(4))
        assert match.matched_len == 4 and match.path == []
        outcome = tree.insert(session.prefix(4), now=2.0)
        assert outcome.split_node is outcome.end_node and outcome.new_leaf is None
        assert [n.seq_len for n in tree.match(session).path] == [4, 6]
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


# ----------------------------------------------------------------------
# The tree owns its edges
# ----------------------------------------------------------------------
def _spellings():
    base = np.array([1, 2, 3, 4, 5], dtype=np.int32)
    strided = np.repeat(base, 2)[::2]
    assert not strided.flags.c_contiguous
    return {
        "int32": base,
        "int64": base.astype(np.int64),
        "strided": strided,
        "list": base.tolist(),
        "handle": TokenSeq(base),
        "prefix-handle": TokenSeq(np.array([1, 2, 3, 4, 5, 6, 7], np.int32)).prefix(5),
    }


@pytest.mark.parametrize("spelling", sorted(_spellings()))
def test_insert_never_aliases_the_callers_buffer(spelling):
    """Whatever a caller inserts, the edge is the tree's own bytes: mutating
    the caller's array afterwards (a plain int32 array used to be donated as
    a view and then compared both stale and fresh) changes no answer."""
    tokens = _spellings()[spelling]
    tree = RadixTree()
    leaf = tree.insert(tokens, 0.0).end_node
    tree.match(np.array([1, 2, 3, 4, 5], np.int32))  # old code cached bytes here
    if isinstance(tokens, TokenSeq):
        # A handle's bytes are immutable.  An edge that is the handle's whole
        # buffer may be that very object (CPython answers ``b[0:len(b)]``
        # with ``b``); a longer buffer is never pinned by a view of it.
        assert leaf.data is tokens.data or not np.shares_memory(
            leaf.edge_tokens, tokens.arr
        )
        assert len(leaf.data) == 4 * 5
    else:
        if isinstance(tokens, np.ndarray):
            assert not np.shares_memory(leaf.edge_tokens, tokens)
        tokens[2] = 99
    assert leaf.data == np.array([1, 2, 3, 4, 5], np.int32).tobytes()
    assert leaf.edge_tokens.dtype == np.int32 and not leaf.edge_tokens.flags.writeable
    assert tree.match([1, 2, 3, 4, 5]).matched_len == 5
    assert tree.match([1, 2, 3, 4]).matched_len == 4
    assert tree.match([1, 2, 99, 4, 5]).matched_len == 2
    tree.check_integrity()


def test_split_halves_concatenate_to_the_original_edge():
    tree = RadixTree()
    base = np.arange(100, 112, dtype=np.int32)
    child = tree.insert(base, 0.0).end_node
    original = child.data
    diverged = np.concatenate([base[:8], [50, 51, 52]]).astype(np.int32)
    outcome = tree.insert(diverged, 1.0)
    middle = outcome.split_node
    assert middle.data + child.data == original == base.tobytes()
    assert middle.data == base[:8].tobytes() and child.data == base[8:].tobytes()
    assert outcome.new_leaf.data == diverged[8:].tobytes()
    for node in tree.iter_nodes():
        assert isinstance(node.data, bytes)
        assert node.edge_tokens.tobytes() == node.data
        for outside in (base, diverged):
            assert not np.shares_memory(node.edge_tokens, outside)
    base[:] = 0
    diverged[:] = 0
    assert tree.match(np.arange(100, 112, dtype=np.int32)).matched_len == 12
    tree.check_integrity()


def test_merge_and_truncate_replace_bytes_and_view_together():
    tree = RadixTree()
    base = np.arange(100, 112, dtype=np.int32)
    child = tree.insert(base, 0.0).end_node
    middle = tree.insert(base[:8], 1.0).end_node  # proper prefix: splits at its end
    assert middle.data + child.data == base.tobytes()
    assert tree.merge_into_child(middle) is child
    assert child.data == base.tobytes() and child.kv_tokens == 12
    assert child.edge_tokens.tobytes() == child.data
    tree.truncate_leaf(child, 5)
    assert child.data == base[:5].tobytes() and child.seq_len == 5
    assert child.edge_tokens.tobytes() == child.data
    assert tree.match(base).matched_len == 5
    tree.check_integrity()
    # A clone shares the immutable bytes and nothing mutable.
    copy = tree.clone()
    (mirrored,) = copy.iter_nodes()
    assert mirrored.data is child.data and mirrored is not child
    copy.check_integrity()
