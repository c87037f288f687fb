"""Direct unit tests for the hash-chained BlockStore."""

import heapq

import numpy as np
import pytest

from repro.baselines.block_store import BlockStore, _ROOT_ID


def arr(*values):
    return np.asarray(values, dtype=np.int32)


def chunk(rng, n=4):
    return rng.integers(0, 100, n, dtype=np.int32)


class TestInsertAndMatch:
    def test_insert_full_block_only(self):
        store = BlockStore(block_size=4)
        with pytest.raises(ValueError, match="full blocks"):
            store.insert_block(_ROOT_ID, arr(1, 2), now=0.0)

    def test_duplicate_insert_rejected(self):
        store = BlockStore(block_size=4)
        store.insert_block(_ROOT_ID, arr(1, 2, 3, 4), now=0.0)
        with pytest.raises(ValueError, match="already cached"):
            store.insert_block(_ROOT_ID, arr(1, 2, 3, 4), now=1.0)

    def test_missing_parent_rejected(self):
        store = BlockStore(block_size=4)
        with pytest.raises(ValueError, match="parent"):
            store.insert_block(999, arr(1, 2, 3, 4), now=0.0)

    def test_chain_depth(self):
        store = BlockStore(block_size=2)
        a = store.insert_block(_ROOT_ID, arr(1, 2), now=0.0)
        b = store.insert_block(a.block_id, arr(3, 4), now=0.0)
        assert (a.depth, b.depth) == (1, 2)
        assert a.n_children == 1

    def test_match_chain_stops_at_gap(self):
        store = BlockStore(block_size=2)
        a = store.insert_block(_ROOT_ID, arr(1, 2), now=0.0)
        store.insert_block(a.block_id, arr(3, 4), now=0.0)
        assert len(store.match_chain(arr(1, 2, 3, 4, 5, 6))) == 2
        assert len(store.match_chain(arr(1, 2, 9, 9))) == 1
        assert len(store.match_chain(arr(9, 9))) == 0

    def test_match_chain_max_blocks(self):
        store = BlockStore(block_size=2)
        a = store.insert_block(_ROOT_ID, arr(1, 2), now=0.0)
        store.insert_block(a.block_id, arr(3, 4), now=0.0)
        assert len(store.match_chain(arr(1, 2, 3, 4), max_blocks=1)) == 1

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            BlockStore(block_size=0)


class TestLRULeafEviction:
    def test_pops_oldest_leaf_not_internal(self):
        store = BlockStore(block_size=2)
        a = store.insert_block(_ROOT_ID, arr(1, 2), now=0.0)  # oldest, internal
        b = store.insert_block(a.block_id, arr(3, 4), now=1.0)  # leaf
        c = store.insert_block(_ROOT_ID, arr(5, 6), now=2.0)  # leaf
        victim = store.pop_lru_leaf()
        assert victim is b  # a is internal despite being oldest
        victim = store.pop_lru_leaf()
        assert victim is a  # becomes a leaf once b is gone
        assert store.pop_lru_leaf() is c
        assert store.pop_lru_leaf() is None

    def test_touch_refreshes_order(self):
        store = BlockStore(block_size=2)
        a = store.insert_block(_ROOT_ID, arr(1, 2), now=0.0)
        b = store.insert_block(_ROOT_ID, arr(3, 4), now=1.0)
        store.touch(a, now=5.0)
        assert store.pop_lru_leaf() is b

    def test_internal_entry_survives_deferred_pop(self):
        """A block whose heap entry is popped while it is internal must
        still be evictable later (the lazy heap re-pushes it)."""
        store = BlockStore(block_size=2)
        a = store.insert_block(_ROOT_ID, arr(1, 2), now=0.0)
        b = store.insert_block(a.block_id, arr(3, 4), now=1.0)
        assert store.pop_lru_leaf() is b
        assert store.pop_lru_leaf() is a
        assert store.n_blocks == 0

    def test_integrity_under_random_ops(self, rng):
        store = BlockStore(block_size=2)
        frontier = [_ROOT_ID]
        for i in range(200):
            if rng.random() < 0.6 or store.n_blocks == 0:
                parent = int(rng.choice(frontier))
                if store.has_block(parent):
                    tokens = chunk(rng, 2)
                    if store.get(parent, tokens) is None:
                        block = store.insert_block(parent, tokens, now=float(i))
                        frontier.append(block.block_id)
            else:
                store.pop_lru_leaf()
            store.check_integrity()


class _DeferringStore(BlockStore):
    """The eviction ``pop_lru_leaf`` replaced, kept as the reference: pop
    every entry older than the LRU leaf, set internal blocks' aside and
    re-push them all afterwards (O(internal blocks) per victim)."""

    def pop_lru_leaf(self):
        deferred = []
        victim = None
        while self._heap:
            entry = heapq.heappop(self._heap)
            ts, _, block_id = entry
            block = self._by_id.get(block_id)
            if block is None or block.last_access != ts:
                continue
            if block.n_children:
                deferred.append(entry)
                continue
            victim = block
            break
        for entry in deferred:
            heapq.heappush(self._heap, entry)
        if victim is None:
            return None
        self._remove(victim)
        return victim


class TestParkedEntries:
    @pytest.mark.parametrize("seed", range(12))
    def test_victims_match_the_deferral_loop(self, seed):
        """Random inserts, touches and pops on few distinct timestamps (so
        entries tie and blocks are re-touched at an equal time): the parked
        heap evicts the very sequence the deferral loop did."""
        rng = np.random.default_rng(seed)
        stores = [BlockStore(block_size=2), _DeferringStore(block_size=2)]
        victims = [[], []]
        live: list[int] = []
        for step in range(600):
            now = float(step // 40)
            op = rng.random()
            if op < 0.5 or not live:
                parent = _ROOT_ID if not live or rng.random() < 0.2 else int(rng.choice(live))
                tokens = chunk(rng, 2)
                if stores[0].get(parent, tokens) is None:
                    made = [store.insert_block(parent, tokens, now) for store in stores]
                    assert made[0].block_id == made[1].block_id
                    live.append(made[0].block_id)
            elif op < 0.75:
                block_id = int(rng.choice(live))
                for store in stores:
                    store.touch(store._by_id[block_id], now)
            else:
                for store, out in zip(stores, victims):
                    victim = store.pop_lru_leaf()
                    out.append(None if victim is None else victim.block_id)
                if victims[0][-1] is not None:
                    live.remove(victims[0][-1])
            assert victims[0] == victims[1]
        while live:
            for store, out in zip(stores, victims):
                out.append(store.pop_lru_leaf().block_id)
            live.remove(victims[0][-1])
            assert victims[0] == victims[1]
        for store in stores:
            assert store.pop_lru_leaf() is None
            store.check_integrity()
        assert not stores[0]._parked
        assert sum(v is not None for v in victims[0]) > 100

    def test_an_eviction_pops_no_internal_entry_twice(self):
        """A chain of internal blocks older than every leaf is parked once,
        not re-popped by each eviction: the heap shrinks to the leaves."""
        store = BlockStore(block_size=2)
        parent = _ROOT_ID
        for i in range(200):  # a 200-block chain, oldest first
            parent = store.insert_block(parent, arr(i, i), now=float(i)).block_id
        for i in range(50):  # 50 later leaves under its last block
            store.insert_block(parent, arr(1000 + i, 0), now=1000.0 + i)
        store.pop_lru_leaf()
        assert len(store._parked) == 200
        assert len(store._heap) == 49
        for _ in range(49):
            store.pop_lru_leaf()
        # The last leaf's parent is a leaf now: its parked entry is back.
        assert len(store._heap) == 1 and len(store._parked) == 199


class TestReuseCounters:
    def test_mark_reused_counts_once(self):
        store = BlockStore(block_size=2)
        a = store.insert_block(_ROOT_ID, arr(1, 2), now=0.0)
        b = store.insert_block(a.block_id, arr(3, 4), now=0.0)
        store.mark_reused([a, b], hybrid=True)
        store.mark_reused([a, b], hybrid=True)
        assert store.reuse_stats.blocks_kv_reused == 2
        assert store.reuse_stats.blocks_ssm_reused == 1  # only the deepest

    def test_rates(self):
        store = BlockStore(block_size=2)
        a = store.insert_block(_ROOT_ID, arr(1, 2), now=0.0)
        store.insert_block(a.block_id, arr(3, 4), now=0.0)
        store.mark_reused([a], hybrid=False)
        assert store.reuse_stats.kv_reuse_rate == pytest.approx(0.5)
        assert store.reuse_stats.ssm_reuse_rate == 0.0
