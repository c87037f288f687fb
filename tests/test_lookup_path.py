"""A directory lookup returns the path it walked.

``PrefixIndex.lookup`` keeps only the node where its walk stopped; the
per-replica maps a router may read (``kv_matched``, ``ckpt_depth``,
``ckpt_depths``) are derived from that path on first read, and
``DirectoryRouter`` reads the path's checkpointed nodes directly.  The first
suite holds the derived maps, on the oracle and a sharded directory, equal
to what the replica trees themselves hold.  The second pins which replica a
transfer is sourced from when two replicas other than the target hold the
same deepest checkpoint.  (The maps' values and dict order on the routing
scenarios are frozen by the decision digest's ``l`` lines.)
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    DirectoryRouter,
    PrefixDirectory,
    ShardedPrefixDirectory,
    probe_hit_tokens,
)
from repro.cluster.directory import _iter_tree_paths
from repro.core.cache import MarconiCache
from repro.core.tokens import TokenSeq
from repro.engine.latency import LatencyModel
from repro.models.memory import node_state_bytes
from repro.models.presets import hybrid_7b, transformer_7b
from repro.tiering import TieredMarconiCache

HYBRID = hybrid_7b()
TRANSFORMER = transformer_7b()
#: Compute so slow and links so fast that a dozen tokens are worth shipping.
LOAD_BEATS_COMPUTE = LatencyModel(
    peak_flops_per_s=1e9,
    transfer_latency_s=0.0,
    transfer_bandwidth_bytes_per_s=1e15,
    secondary_fetch_bandwidth_bytes_per_s=1e15,
)


def tiny(n, seed, vocab=3):
    return np.random.default_rng(seed).integers(0, vocab, size=n, dtype=np.int32)


def serve(cache, seq, now, out_seed=991):
    with cache.begin(seq, now) as session:
        full = np.concatenate([seq, tiny(3, out_seed)])
        session.commit(full, now + 0.5)
    return full


def from_the_tree(cache, query, limit):
    """``(kv matched, checkpoint depths)`` of one replica, read off its own
    tree: the longest common prefix of the query with any cached path, and
    every checkpointed path the query extends, no deeper than ``limit``."""
    kv, depths = 0, []
    for path, _, has_ckpt in _iter_tree_paths(cache.tree):
        k = min(len(path), len(query))
        same = path[:k] == query[:k]
        shared = k if same.all() else int(np.argmin(same))
        kv = max(kv, shared)
        if has_ckpt and shared == len(path) and len(path) <= limit:
            depths.append(len(path))
    return kv, sorted(depths)


@st.composite
def fleets(draw):
    kinds = draw(st.lists(st.sampled_from(["hybrid", "hybrid", "transformer"]), min_size=1, max_size=6))
    served = draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 24), st.integers(0, 7)),
            min_size=1,
            max_size=18,
        )
    )
    queries = draw(
        st.lists(
            st.tuples(st.integers(0, 17), st.integers(0, 6), st.integers(-2, 2)),
            min_size=1,
            max_size=8,
        )
    )
    return kinds, served, queries, draw(st.booleans())


def build(kinds, served, tight):
    per_seq = node_state_bytes(HYBRID, 24, True)
    capacity = 4 * per_seq if tight else int(1e12)
    caches = [
        MarconiCache(HYBRID if kind == "hybrid" else TRANSFORMER, capacity, alpha=1.0)
        for kind in kinds
    ]
    fulls = []
    for step, (replica, length, seed) in enumerate(served):
        fulls.append(serve(caches[replica % len(caches)], tiny(length, seed), float(step)))
    return caches, fulls


class TestDerivedMapsAreTheTrees:
    @settings(max_examples=80, deadline=None)
    @given(fleets())
    def test_derived_maps_equal_the_trees(self, fleet):
        kinds, served, queries, tight = fleet
        caches, fulls = build(kinds, served, tight)
        backends = [PrefixDirectory(), ShardedPrefixDirectory(n_shards=3, region_tokens=4)]
        for backend in backends:
            for index, cache in enumerate(caches):
                backend.attach(index, cache)
        for pick, extra, skew in queries:
            query = np.concatenate([fulls[pick % len(fulls)], tiny(extra, pick)])
            query = query[: max(1, len(query) - (pick % 3))]
            limit = max(0, len(query) - 1 + skew)
            for backend in backends:
                asked = TokenSeq.of(np.append(query, 7)).prefix(len(query))
                got = backend.lookup(asked if pick % 2 else query, limit=limit)
                for index, cache in enumerate(caches):
                    kv, depths = from_the_tree(cache, query, limit)
                    assert got.kv_matched.get(index, 0) == kv
                    assert got.ckpt_depths.get(index, []) == depths
                    assert got.ckpt_depth.get(index, 0) == (depths[-1] if depths else 0)
                # The checkpoint list the router reads is the same path.
                depths = sorted({d for ds in got.ckpt_depths.values() for d in ds}, reverse=True)
                assert got.checkpoints() == [
                    (d, {r for r, ds in got.ckpt_depths.items() if d in ds}) for d in depths
                ]
                full = backend.lookup(query, limit=len(query) - 1)
                for index, cache in enumerate(caches):
                    hit = probe_hit_tokens(cache, query)
                    if cache.model.has_recurrent_layers:
                        assert full.ckpt_depth.get(index, 0) == hit
                    else:
                        assert min(full.kv_matched.get(index, 0), len(query) - 1) == hit
        for backend in backends:
            backend.close()

    def test_a_lookup_compares_by_its_maps(self):
        cache = MarconiCache(HYBRID, int(1e12), alpha=0.0)
        full = serve(cache, tiny(20, 1), 0.0)
        a, b = PrefixDirectory(), ShardedPrefixDirectory(n_shards=2, region_tokens=4)
        a.attach(0, cache)
        b.attach(0, cache)
        query = np.append(full, 2)
        assert a.lookup(query) == b.lookup(query) != a.lookup(query[:5])
        assert "ckpt_depth={0: %d}" % len(full) in repr(a.lookup(query))
        empty = a.lookup(np.array([9, 9], dtype=np.int32))
        assert (empty.kv_matched, empty.ckpt_depth, empty.checkpoints()) == ({}, {}, [])


# ----------------------------------------------------------------------
# The transfer source among equally deep holders
# ----------------------------------------------------------------------
class TestTransferSourceAmongEquallyDeepHolders:
    def _fleet(self, early):
        """Replicas 1 and 2 hold the same deep prefix; ``early`` also holds
        a shallower checkpoint of it, so it enters the lookup's maps first."""
        caches = [
            TieredMarconiCache(HYBRID, int(1e12), secondary_bytes=int(1e12), alpha=0.0)
            for _ in range(3)
        ]
        stem = tiny(60, 5, vocab=50)
        for replica, held in ((early, stem[:20]), (1, stem), (2, stem)):
            with caches[replica].begin(held[:-3], float(replica)) as session:
                session.commit(held, replica + 0.5)  # a checkpoint at its end
        return caches, np.append(stem, 1)

    def test_the_first_holder_in_the_lookups_order_is_the_source(self):
        for early in (1, 2):
            caches, query = self._fleet(early)
            router = DirectoryRouter(max_imbalance=0, transfer_min_tokens=8)
            router.prepare(HYBRID, caches, LOAD_BEATS_COMPUTE)
            lookup = router.directory.lookup(query, limit=len(query) - 1)
            # The premise: a tie at the deepest checkpoint, ``early`` first.
            assert lookup.ckpt_depth[1] == lookup.ckpt_depth[2] == len(query) - 1
            assert next(iter(lookup.ckpt_depth)) == early
            # Both holders are loaded, so the request spills to replica 0.
            decision = router.decide(query, 0, caches, [0, 3, 3], 1.0)
            assert decision.replica == 0
            assert decision.transfer is not None
            assert (decision.transfer.source, decision.transfer.target) == (early, 0)
            router.release()

    def test_a_holder_exactly_the_minimum_deeper_still_counts(self):
        caches, query = self._fleet(2)
        deepest = len(query) - 1  # the target (replica 0) holds nothing
        for min_tokens, plans in ((deepest, True), (deepest + 1, False)):
            router = DirectoryRouter(max_imbalance=0, transfer_min_tokens=min_tokens)
            router.prepare(HYBRID, caches, LOAD_BEATS_COMPUTE)
            transfer = router.decide(query, 0, caches, [0, 3, 3], 1.0).transfer
            assert (transfer is not None) is plans
            planned = {"chose_load", "chose_split", "chose_recompute"} & router.decision_stats.keys()
            assert bool(planned) is plans
            router.release()
