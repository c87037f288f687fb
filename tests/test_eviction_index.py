"""Unit tests for the tree observer surface and the incremental eviction index."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import eviction
from repro.core.cache import MarconiCache
from repro.core.eviction import FlopAwareEviction, _rank_normalize
from repro.core.eviction_index import EvictionIndex, _RankColumns
from repro.core.interfaces import replay_log
from repro.core.persistence import load_cache, save_cache
from repro.core.radix_tree import RadixTree, TreeObserver
from repro.models.memory import node_state_bytes
from repro.models.presets import hybrid_7b, tiny_test_model
from repro.workloads import generate_trace


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

    def on_leaf_truncated(self, node, dropped):
        self.events.append(("truncated", node.node_id, dropped))

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
        # The cut-off tail is handed over: the tree no longer holds it.
        assert obs.events[4] == ("truncated", leaf.node_id, arr(4).tobytes())
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
            s = cache.begin(seq, float(i))
            s.commit(np.concatenate([seq, tokens(3, seed=300 + i)]), float(i) + 0.5)
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
            s = source.begin(seq, float(i))
            s.commit(np.concatenate([seq, tokens(5, seed=50 + i)]), float(i) + 0.5)
        target = MarconiCache(model, capacity_bytes=int(1e9), alpha=1.0)
        target.tree = source.tree.clone()
        maintained = {c.node.node_id for c in target.eviction_index.candidates()}
        rebuilt = {c.node.node_id for c in target._collect_candidates()}
        assert maintained == rebuilt and maintained

    def test_reset_clears_index(self):
        model = tiny_test_model()
        cache = MarconiCache(model, capacity_bytes=int(1e9), alpha=1.0)
        in_flight = cache.begin(arr(1, 2, 3), 0.0)
        cache.reset()
        assert not in_flight.is_open
        assert cache.eviction_index.candidates() == []
        assert cache.used_bytes == 0


def check_ranks(index, policy):
    """Maintained state == the from-scratch definition, exactly."""
    ranked, ranks = index.normalized_ranks()
    assert [c.slot for c in ranked] == list(range(len(ranked)))
    assert sorted(map(id, ranked)) == sorted(map(id, index.candidates()))
    assert ranks[0].tolist() == _rank_normalize([c.last_access for c in ranked])
    assert ranks[1].tolist() == _rank_normalize([c.flop_efficiency for c in ranked])
    if ranked:
        chosen = policy.select_from_index(index)
        assert chosen is policy.select_victim(index.candidates())
    else:
        with pytest.raises(ValueError):
            policy.select_from_index(index)


class RankedLeaves:
    """A flat tree of leaves whose candidacy and scored values a test sets.

    ``freeable[i] > 0`` makes leaf ``i`` a candidate; ``touch`` / ``price``
    change one scored value each and mark the leaf for re-evaluation the
    way the tree's own callbacks do.
    """

    def __init__(self, n_leaves):
        self.tree = RadixTree()
        self.leaves = [
            self.tree.insert(arr(i + 1, 0), now=0.0).end_node for i in range(n_leaves)
        ]
        self.freeable = {leaf.node_id: 0 for leaf in self.leaves}
        self.efficiency = {leaf.node_id: 0.0 for leaf in self.leaves}
        self.index = EvictionIndex(
            self.tree,
            lambda node: self.freeable[node.node_id],
            lambda node, freeable: self.efficiency[node.node_id],
        )
        self.index.normalized_ranks()  # maintained from here on

    def touch(self, i, when):
        self.tree.touch(self.leaves[i], when)

    def price(self, i, efficiency):
        """A new efficiency (and, to be re-evaluated, a new byte count)."""
        node_id = self.leaves[i].node_id
        self.efficiency[node_id] = efficiency
        self.freeable[node_id] = self.freeable[node_id] % 1000 + 1
        self.index.on_checkpoint_changed(self.leaves[i])

    def drop(self, i):
        self.freeable[self.leaves[i].node_id] = 0
        self.index.on_checkpoint_changed(self.leaves[i])

    def check(self, policy=FlopAwareEviction(alpha=1.0)):
        check_ranks(self.index, policy)


def assert_kernel_is_the_definition(rows):
    """``_RankColumns.normalized`` over candidates carrying ``rows`` (row 0
    their ``last_access``, row 1 their ``flop_efficiency``) equals
    ``_rank_normalize`` of each row, float for float."""
    columns = _RankColumns(
        SimpleNamespace(last_access=a, flop_efficiency=e) for a, e in zip(*rows)
    )
    ranks = columns.normalized()
    assert ranks.shape == (2, len(rows[0]))
    for row, values in zip(ranks, rows):
        assert row.tolist() == _rank_normalize(list(values))


class TestRankKernel:
    """The kernel alone, on rows drawn or named, tie by tie."""

    @given(
        n=st.integers(0, 1200),
        alphabet=st.lists(
            st.floats(allow_nan=False), min_size=3, max_size=5, unique=True
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_drawn_rows_rank_as_the_definition(self, n, alphabet, seed):
        """Few distinct values, so nearly every candidate is in a tie."""
        rows = np.random.default_rng(seed).choice(alphabet, size=(2, n)).tolist()
        assert_kernel_is_the_definition(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.0, 3.0, 2.0, 3.0], [3.0, 5.0, 3.0, 4.0]],
            [[0.0, 0.0, 5.0], [5.0, 5.0, 9.0]],
        ],
        ids=["between-ties", "singleton-meets-tie"],
    )
    def test_row_0_largest_equal_to_row_1_smallest(self, rows):
        """Laid end to end, the two rows meet at a run of equal values: the
        tie must stop at the row boundary."""
        assert_kernel_is_the_definition(rows)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1000])
    def test_all_values_equal(self, n):
        """One run per row; with both rows at one value, the runs meet."""
        for rows in ([[4.0] * n, [-1.0] * n], [[0.0] * n, [0.0] * n]):
            assert_kernel_is_the_definition(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [[], []],
            [[5.0], [-2.0]],
            [[1.0, 2.0], [2.0, 1.0]],
            [[2.0, 1.0], [1.0, 1.0]],
            [[1.0, 1.0], [3.0, 2.0]],
            [[float("-inf"), float("inf")], [0.0, -0.0]],
        ],
        ids=["n0", "n1", "n2-distinct", "n2-row1-tied", "n2-row0-tied", "n2-infs-zeros"],
    )
    def test_smallest_sets(self, rows):
        assert_kernel_is_the_definition(rows)

    def test_run_rank_expression_is_the_definition_bit_for_bit(self):
        """``(lo + hi + 1) / (2n)`` == ``((lo + hi - 1) / 2 + 1) / n`` for
        every run ``0 <= lo < hi <= n <= 2048``: both read only
        ``lo + hi``, which takes every value from 1 to ``2n - 1``."""
        for n in range(1, 2049):
            total = np.arange(1, 2 * n)
            kernel = (total + 1) / (2.0 * n)
            definition = ((total - 1) / 2.0 + 1.0) / n
            assert np.array_equal(kernel, definition), n


@pytest.fixture
def ranks_from_one_candidate():
    """Have ``select_from_index`` read maintained ranks at any size, so the
    small candidate sets below reach the code large ones run."""
    default = eviction._MAINTAIN_RANKS_FROM
    eviction._MAINTAIN_RANKS_FROM = 1
    yield
    eviction._MAINTAIN_RANKS_FROM = default


@pytest.mark.usefixtures("ranks_from_one_candidate")
class TestMaintainedRanks:
    """The rank columns the index keeps for ``FlopAwareEviction``."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["touch", "price", "both", "drop", "rebuild"]),
                st.integers(0, 7),
                st.sampled_from([0.0, 1.0, 2.0]),
                st.sampled_from([0.0, 0.5, 7.0]),
                st.booleans(),
            ),
            max_size=40,
        ),
        alpha=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_maintained_ranks_equal_the_definition_under_ties(self, ops, alpha):
        """Random add / one-column / both-column / remove / rebuild()
        sequences, few distinct values so both columns tie heavily, read
        after single changes and after batches."""
        world = RankedLeaves(8)
        policy = FlopAwareEviction(alpha=alpha)
        for op, i, when, efficiency, read in ops:
            if op == "rebuild":
                world.index.rebuild()
            elif op == "drop":
                world.drop(i)
            else:  # adds the leaf when it was not a candidate
                if op in ("touch", "both"):
                    world.touch(i, when)
                if op in ("price", "both"):
                    world.price(i, efficiency)
                elif world.freeable[world.leaves[i].node_id] == 0:
                    world.price(i, world.efficiency[world.leaves[i].node_id])
            if read:
                world.check(policy)
        world.check(policy)

    def test_single_changes_update_in_place(self):
        """No re-seed behind the property's back: one changed candidate
        keeps the column object, so the incremental path is what ran."""
        world = RankedLeaves(4)
        for i in range(4):
            world.price(i, float(i % 2))
            world.check()
        columns = world.index._ranks
        world.touch(1, 5.0)
        world.check()
        world.price(2, 9.0)
        world.check()
        world.drop(0)
        world.check()
        assert world.index._ranks is columns

    def test_slot_is_reused_after_swap_with_last(self):
        world = RankedLeaves(4)
        for i in range(3):
            world.touch(i, float(i))
            world.price(i, float(3 - i))
            world.check()
        first, _, last = world.index.normalized_ranks()[0]
        world.drop(0)  # the last slot's candidate moves into slot 0
        world.check()
        ranked = world.index.normalized_ranks()[0]
        assert ranked[0] is last and last.slot == 0 and first not in ranked
        world.price(3, 1.0)  # and a newcomer takes the freed last slot
        world.check()
        assert world.index.normalized_ranks()[0][2].node is world.leaves[3]

    def test_growth_past_the_initial_capacity(self):
        world = RankedLeaves(150)
        for i in range(150):
            world.touch(i, float(i % 7))
            world.price(i, float(i % 5))
            if i % 10 == 0 or i in (63, 64, 65, 128, 129):
                world.check()
        world.check()
        assert len(world.index.normalized_ranks()[0]) == 150

    def test_puts_and_removes_across_three_growths(self):
        """Straight on the columns: grow the buffer from empty at least
        three times, take candidates out of the middle, put replacements in place, and
        the flat buffer still ranks as the definition, bit for bit."""
        columns = _RankColumns([])
        rng = np.random.default_rng(3)
        alphabet = [0.0, 0.5, 2.0, -1.0]

        def candidate():
            a, e = rng.choice(alphabet, size=2).tolist()
            return SimpleNamespace(last_access=a, flop_efficiency=e, slot=-1)

        def check():
            live = columns.candidates
            assert [c.slot for c in live] == list(range(len(live)))
            ranks = columns.normalized()
            assert ranks.shape == (2, len(live))
            assert ranks[0].tolist() == _rank_normalize([c.last_access for c in live])
            assert ranks[1].tolist() == _rank_normalize([c.flop_efficiency for c in live])

        capacities = {columns.capacity}
        for step in range(60):
            columns.put(candidate(), None)
            capacities.add(columns.capacity)
            if step % 7 == 6:
                columns.remove(columns.candidates[len(columns.candidates) // 2])
            if step % 5 == 4:
                columns.put(candidate(), columns.candidates[step % len(columns.candidates)])
            check()
        assert len(capacities) >= 4  # the empty buffer and three growths
        while len(columns.candidates) > 1:
            columns.remove(columns.candidates[len(columns.candidates) // 3])
            check()

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0, 1e6])
    def test_a_tie_for_the_lowest_score_breaks_as_the_definition(self, alpha):
        """Two values per column: the lowest score is shared by several
        candidates, and the first of them in slot order is not the victim
        (``sort_key`` decides): the first four leaves left and came back,
        so the slots no longer run in node-id order."""
        world = RankedLeaves(24)
        for i in range(24):
            world.touch(i, float((i * 7) % 2))
            world.price(i, float((i * 5) % 3 == 0))
        for i in range(4):
            world.drop(i)
        world.index.candidates()
        for i in range(4):
            world.price(i, world.efficiency[world.leaves[i].node_id])
        policy = FlopAwareEviction(alpha=alpha)
        ranked, (recency, efficiency) = world.index.normalized_ranks()
        scores = (recency + alpha * efficiency).tolist()
        assert scores.count(min(scores)) > 1
        victim = policy.select_victim(world.index.candidates())
        assert ranked[scores.index(min(scores))] is not victim
        assert policy.select_from_index(world.index) is victim
        world.check(policy)

    def test_empty_and_single_candidate(self):
        world = RankedLeaves(1)
        world.check()  # n = 0: selection raises
        world.price(0, 3.0)
        ranked, ranks = world.index.normalized_ranks()
        assert ranks.tolist() == [[1.0], [1.0]]
        assert FlopAwareEviction().select_from_index(world.index) is ranked[0]
        world.drop(0)
        world.check()

    def test_alpha_mutated_between_two_selections(self):
        world = RankedLeaves(3)
        for i, (when, efficiency) in enumerate([(1.0, 9.0), (2.0, 1.0), (3.0, 5.0)]):
            world.touch(i, when)
            world.price(i, efficiency)
        policy = FlopAwareEviction(alpha=0.0)
        assert policy.select_from_index(world.index).node is world.leaves[0]  # LRU
        policy.alpha = 100.0  # the tuner adopting a winner, in place
        assert policy.select_from_index(world.index).node is world.leaves[1]
        world.check(policy)

    def contended_cache(self, tokens, **kwargs):
        cache = MarconiCache(tiny_test_model(), capacity_bytes=40_000, **kwargs)
        for i in range(12):
            seq = tokens(40, seed=i)
            s = cache.begin(seq, float(i))
            s.commit(np.concatenate([seq, tokens(8, seed=50 + i)]), float(i) + 0.5)
        assert cache.stats.evictions > 0
        return cache

    def test_tree_reassignment_reseeds(self, tokens, tmp_path):
        """reset, persistence reload and the tuner's replay snapshot hand
        the cache a new tree: the new index seeds its own columns."""
        cache = self.contended_cache(tokens, alpha=1.0)
        check_ranks(cache.eviction_index, cache.policy)

        save_cache(cache, tmp_path / "warm.npz")
        reloaded = load_cache(
            tiny_test_model(), 30_000, tmp_path / "warm.npz", alpha=1.0
        )
        assert reloaded.stats.evictions > 0  # shrunk to fit on load
        check_ranks(reloaded.eviction_index, reloaded.policy)

        replica = cache.make_replay_cache(2.0, cache.snapshot_for_replay())
        assert replica.eviction_index._ranks is None
        check_ranks(replica.eviction_index, replica.policy)

        cache.reset()
        assert cache.eviction_index._ranks is None
        assert cache.eviction_index.normalized_ranks()[0] == []

    def test_only_rank_scoring_under_eviction_pays_for_columns(self, tokens):
        """Pay for use: an LRU cache under eviction has no columns, nor has
        a flop-aware cache that never had to choose a victim; binding
        another policy lets maintained columns go."""
        assert self.contended_cache(tokens, eviction="lru").eviction_index._ranks is None
        roomy = MarconiCache(tiny_test_model(), capacity_bytes=int(1e9), alpha=1.0)
        with roomy.begin(arr(1, 2, 3), 0.0):
            assert roomy.eviction_index._ranks is None
        contended = self.contended_cache(tokens, alpha=1.0)
        assert contended.eviction_index._ranks is not None
        FlopAwareEviction().bind_index(contended.eviction_index)
        assert contended.eviction_index._ranks is None


class TestRankUpkeepThreshold:
    """At the shipped ``_MAINTAIN_RANKS_FROM``: small candidate sets are
    scored from scratch, large ones from maintained ranks, and no victim
    depends on which."""

    def test_every_victim_matches_a_rescan_on_both_sides(self, tokens):
        sizes = []

        class CheckedCache(MarconiCache):
            def _apply_eviction(self, victim):
                sizes.append(len(self.eviction_index))
                reference = self.policy.select_victim(self._collect_candidates())
                assert victim.node is reference.node
                maintained = self.eviction_index._ranks is not None
                assert maintained == (sizes[-1] >= eviction._MAINTAIN_RANKS_FROM)
                super()._apply_eviction(victim)

        model = tiny_test_model()
        cache = CheckedCache(model, capacity_bytes=2_000_000, alpha=1.0)
        for i in range(260):
            # Few distinct lengths and a shared stem: efficiencies tie.
            seq = np.concatenate([tokens(6, seed=i % 9), tokens(10 + i % 3, seed=1000 + i)])
            s = cache.begin(seq, float(i // 4))  # and so do access times
            s.commit(np.concatenate([seq, tokens(4, seed=2000 + i)]), float(i // 4))
            if i == 200:  # shrink: the candidate set falls back below the line
                cache._capacity = 200_000
        below = sum(n < eviction._MAINTAIN_RANKS_FROM for n in sizes)
        assert below > 20 and len(sizes) - below > 20
        cache.check_integrity()



class TestSleepingIndex:
    """An index built on an empty tree observes nothing until first read,
    and wakes into the state an index registered from the start holds."""

    @staticmethod
    def replay(states, wake, **cache_kwargs):
        """Serve a seeded lmsys trace; returns the cache, its victims
        (node-id offset from its root's, seq_len) and the candidate order
        at its first eviction (offsets)."""
        model = hybrid_7b()
        victims, first_order = [], []

        class RecordingCache(MarconiCache):
            def _apply_eviction(self, victim):
                if not victims:
                    first_order.extend(
                        c.node.node_id - base for c in self.eviction_index.candidates()
                    )
                victims.append((victim.node.node_id - base, victim.node.seq_len))
                super()._apply_eviction(victim)

        capacity = states * node_state_bytes(model, 2000, True)
        cache = RecordingCache(model, capacity, **cache_kwargs)
        base = cache.tree.root.node_id
        if wake:
            len(cache.eviction_index)
        replay_log(cache, generate_trace("lmsys", n_sessions=120, seed=3).nominal_log())
        return cache, victims, first_order

    @pytest.mark.parametrize(
        "eviction_name,alpha,ranks_from",
        [
            ("flop_aware", 1.0, None),
            ("flop_aware", 1.0, 1),  # maintained ranks at every size
            ("flop_aware", None, None),  # the tuner
            ("flop_aware", None, 1),
            ("lru", None, None),
            ("lru_k", None, None),
            ("random", None, None),
            ("gdsf", None, None),
        ],
    )
    def test_a_sleeping_index_decides_as_a_woken_one(
        self, monkeypatch, eviction_name, alpha, ranks_from
    ):
        if ranks_from is not None:
            monkeypatch.setattr(eviction, "_MAINTAIN_RANKS_FROM", ranks_from)
        runs = [
            self.replay(20, wake, eviction=eviction_name, alpha=alpha)
            for wake in (True, False)
        ]
        (woken, victims, order), (asleep, asleep_victims, asleep_order) = runs
        assert len(victims) > 100 and len(order) > 1
        assert asleep_victims == victims
        assert asleep_order == order
        if woken.tuner is not None:
            assert woken.tuner.is_tuned and asleep.alpha == woken.alpha
        assert asleep.stats == woken.stats
        asleep.check_integrity()

    @pytest.mark.parametrize("eviction_name", ["flop_aware", "lru"])
    def test_a_cache_that_never_evicts_never_wakes_its_index(
        self, monkeypatch, eviction_name
    ):
        calls = {"on_pin_changed": 0, "_flush": 0}

        def counted(name):
            method = getattr(EvictionIndex, name)

            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)

            monkeypatch.setattr(EvictionIndex, name, wrapper)

        for name in calls:
            counted(name)
        cache, victims, _ = self.replay(10**6, wake=False, eviction=eviction_name)
        index = cache.eviction_index
        assert not victims and cache.tree.n_nodes > 100
        assert not index.awake and index not in cache.tree._observers
        assert calls == {"on_pin_changed": 0, "_flush": 0}

        assert cache.eviction_node_visits == cache.tree.n_nodes  # wakes it
        assert index.awake and index in cache.tree._observers
        assert len(index) == len(cache._collect_candidates()) > 0
