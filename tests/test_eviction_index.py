"""Unit tests for the tree observer surface and the incremental eviction index."""

import numpy as np
import pytest

from repro.core.cache import MarconiCache
from repro.core.eviction_index import EvictionIndex
from repro.core.radix_tree import RadixTree, TreeObserver
from repro.models.presets import tiny_test_model


def arr(*tokens):
    return np.asarray(tokens, dtype=np.int32)


class RecordingObserver(TreeObserver):
    def __init__(self):
        self.events = []

    def on_node_added(self, node):
        self.events.append(("added", node.node_id))

    def on_edge_split(self, middle, child):
        self.events.append(("split", middle.node_id, child.node_id))

    def on_leaf_removed(self, node, parent):
        self.events.append(("removed", node.node_id, parent.node_id))

    def on_merged(self, node, child):
        self.events.append(("merged", node.node_id, child.node_id))

    def on_leaf_truncated(self, node):
        self.events.append(("truncated", node.node_id))

    def on_checkpoint_changed(self, node):
        self.events.append(("checkpoint", node.node_id, node.has_ssm_state))

    def on_pin_changed(self, node):
        self.events.append(("pin", node.node_id, node.pin_count))

    def on_touched(self, node):
        self.events.append(("touched", node.node_id))


class TestTreeObserver:
    def test_insert_fires_added_and_split(self):
        tree = RadixTree()
        obs = RecordingObserver()
        tree.add_observer(obs)
        first = tree.insert(arr(1, 2, 3, 4), now=0.0)
        assert obs.events == [("added", first.end_node.node_id)]
        obs.events.clear()
        second = tree.insert(arr(1, 2, 9), now=1.0)
        kinds = [e[0] for e in obs.events]
        assert kinds == ["split", "added"]
        assert obs.events[0][1] == second.split_node.node_id
        assert obs.events[1][1] == second.new_leaf.node_id

    def test_remove_merge_truncate_and_state_callbacks(self):
        tree = RadixTree()
        obs = RecordingObserver()
        tree.add_observer(obs)
        tree.insert(arr(1, 2), now=0.0)
        out = tree.insert(arr(1, 2, 3, 4), now=1.0)
        leaf = out.end_node
        interior = leaf.parent
        obs.events.clear()

        tree.set_checkpoint(interior, now=2.0)
        tree.clear_checkpoint(interior)
        tree.touch(interior, 3.0)
        tree.refresh_access(interior, 4.0)
        tree.truncate_leaf(leaf, 1)
        tree.remove_leaf(leaf)
        assert [e[0] for e in obs.events] == [
            "checkpoint",
            "checkpoint",
            "touched",
            "touched",
            "truncated",
            "removed",
        ]
        assert interior.last_access == 4.0 and interior.hit_count == 1

    def test_pin_path_fires_per_node_and_remove_observer_silences(self):
        tree = RadixTree()
        obs = RecordingObserver()
        tree.add_observer(obs)
        out = tree.insert(arr(1, 2), now=0.0)
        tree.insert(arr(1, 2, 3), now=1.0)
        deep = tree.match(arr(1, 2, 3)).deepest_node
        obs.events.clear()
        tree.pin_path(deep)
        assert [e[0] for e in obs.events] == ["pin", "pin"]
        tree.unpin_path(deep)
        tree.remove_observer(obs)
        obs.events.clear()
        tree.touch(out.end_node, 5.0)
        assert obs.events == []


class TestEvictionIndexMaintenance:
    def make_index(self, tree):
        # Byte accounting stand-ins: 10 bytes per edge token for leaves,
        # 7 bytes for an interior checkpoint, efficiency = seq_len.
        def freeable(node):
            if node.is_leaf:
                return 10 * node.kv_tokens + (7 if node.has_ssm_state else 0)
            return 7 if node.has_ssm_state else 0

        return EvictionIndex(tree, freeable, lambda node, b: float(node.seq_len))

    def expected_ids(self, tree, freeable):
        return {
            n.node_id
            for n in tree.iter_nodes()
            if n.n_children <= 1 and not n.is_pinned and freeable(n) > 0
        }

    def test_tracks_membership_through_mutations(self):
        tree = RadixTree()
        index = self.make_index(tree)
        out1 = tree.insert(arr(1, 2, 3, 4), now=0.0)
        out2 = tree.insert(arr(1, 2, 9), now=1.0)
        # Leaves are candidates; the unchekpointed split node frees 0 bytes.
        ids = {c.node.node_id for c in index.candidates()}
        assert ids == {out1.end_node.node_id, out2.new_leaf.node_id}

        # A checkpoint alone cannot make the two-child split node evictable.
        tree.set_checkpoint(out2.split_node)
        ids = {c.node.node_id for c in index.candidates()}
        assert out2.split_node.node_id not in ids

        tree.pin_path(out1.end_node)
        ids = {c.node.node_id for c in index.candidates()}
        assert out1.end_node.node_id not in ids
        tree.unpin_path(out1.end_node)

        # Removing one branch leaves a single-child checkpointed interior
        # node: now it frees its recurrent bytes and becomes a candidate.
        tree.remove_leaf(tree.match(arr(1, 2, 9)).deepest_node)
        ids = {c.node.node_id for c in index.candidates()}
        assert out2.split_node.node_id in ids
        assert index.get(out2.split_node.node_id).freeable_bytes == 7

        tree.clear_checkpoint(out2.split_node)
        assert out2.split_node.node_id not in {
            c.node.node_id for c in index.candidates()
        }
        tree.merge_into_child(out2.split_node)
        ids = {c.node.node_id for c in index.candidates()}
        assert ids == {out1.end_node.node_id}
        # The absorbing leaf's cached freeable bytes reflect the merged edge.
        (cand,) = index.candidates()
        assert cand.freeable_bytes == 10 * 4

    def test_candidates_snapshot_stands_until_a_candidate_changes(self):
        tree = RadixTree()
        index = self.make_index(tree)
        out = tree.insert(arr(1, 2), now=0.0)
        first = index.candidates()
        assert index.candidates() is first
        # A pin/unpin round trip re-evaluates the node to an unchanged key:
        # the candidate object and the cached snapshot both stand.
        tree.pin_path(out.end_node)
        tree.unpin_path(out.end_node)
        assert index.candidates() is first
        tree.touch(out.end_node, 1.0)
        assert index.candidates() is not first

    def test_node_visits_counts_evaluations(self):
        tree = RadixTree()
        index = self.make_index(tree)
        before = index.node_visits
        tree.insert(arr(1, 2, 3), now=0.0)
        assert index.node_visits > before


class TestHeapSelectorIdentity:
    """Heap-backed selection must equal the seed's min() over candidates."""

    @pytest.mark.parametrize("eviction", ["lru", "gdsf", "gds", "lfu", "lru_k"])
    def test_heap_selection_matches_list_scan(self, eviction, tokens):
        model = tiny_test_model()
        cache = MarconiCache(
            model, capacity_bytes=int(1e9), eviction=eviction, alpha=1.0
        )
        rng = np.random.default_rng(7)
        for i in range(12):
            if i % 3 and i > 0:
                base = tokens(8, seed=100 + i - 1)
                seq = np.concatenate([base[:4], tokens(6, seed=200 + i)])
            else:
                seq = tokens(8, seed=100 + i)
            r = cache.lookup(seq, float(i))
            cache.admit(
                np.concatenate([seq, tokens(3, seed=300 + i)]),
                float(i) + 0.5,
                handle=r.handle,
            )
            index = cache.eviction_index
            if index.candidates():
                chosen = cache.policy.select_from_index(index)
                reference = cache.policy.select_victim(index.candidates())
                assert chosen is reference

    def test_empty_index_raises(self):
        model = tiny_test_model()
        cache = MarconiCache(model, capacity_bytes=int(1e9), eviction="lru")
        with pytest.raises(ValueError):
            cache.policy.select_from_index(cache.eviction_index)


class TestTreeReattachment:
    def test_assigning_a_tree_reseeds_the_index(self, tokens):
        model = tiny_test_model()
        source = MarconiCache(model, capacity_bytes=int(1e9), alpha=1.0)
        for i in range(4):
            seq = tokens(30, seed=i)
            r = source.lookup(seq, float(i))
            source.admit(
                np.concatenate([seq, tokens(5, seed=50 + i)]),
                float(i) + 0.5,
                handle=r.handle,
            )
        target = MarconiCache(model, capacity_bytes=int(1e9), alpha=1.0)
        target.tree = source.tree.clone()
        target._used = target.recompute_used_bytes()
        maintained = {c.node.node_id for c in target.eviction_index.candidates()}
        rebuilt = {c.node.node_id for c in target._collect_candidates()}
        assert maintained == rebuilt and maintained

    def test_reset_clears_index(self):
        model = tiny_test_model()
        cache = MarconiCache(model, capacity_bytes=int(1e9), alpha=1.0)
        cache.lookup(arr(1, 2, 3), 0.0)
        cache.reset()
        assert cache.eviction_index.candidates() == []
        assert cache.used_bytes == 0
