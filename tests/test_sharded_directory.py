"""Differential + property conformance harness for the sharded directory.

The sharded directory's load-bearing promise is *zero-delay exactness*:
with ``propagation_delay=0`` a :class:`ShardedPrefixDirectory` of any
shard count and region size must be lookup- and routing-decision-identical
to the synchronous :class:`PrefixDirectory` oracle, for any stream of
cache operations (inserts, evictions, aborts, truncations, resets,
replica failures and joins).  The suites here pin that contract with a
hand-written differential harness plus hypothesis-randomized operation
streams, then exercise what the oracle cannot
express: bounded staleness (delayed gossip, budget throttling, lookup
ages), shard loss, dropped batches, and shared multi-router views.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    DirectoryRouter,
    HierarchicalRouter,
    ManualGossipTransport,
    PrefixAffinityRouter,
    PrefixDirectory,
    ShardedPrefixDirectory,
    make_router,
    probe_hit_tokens,
)
from repro.baselines.vllm_plus import VLLMPlusCache
from repro.cluster.sharded_directory import _HashRing
from repro.core.cache import MarconiCache
from repro.core.tokens import TokenSeq
from repro.models.memory import node_state_bytes
from repro.models.presets import hybrid_7b, transformer_7b

HYBRID = hybrid_7b()
TRANSFORMER = transformer_7b()


def toks(n, seed):
    return np.random.default_rng(seed).integers(0, 32000, size=n, dtype=np.int32)


def tiny(n, seed):
    """Tiny-vocab sequences maximize shared prefixes, splits, evictions."""
    return np.random.default_rng(seed).integers(0, 4, size=n, dtype=np.int32)


def serve(cache, seq, now, out=10, out_seed=991):
    with cache.begin(seq, now) as session:
        full = np.concatenate([seq, toks(out, out_seed)])
        session.commit(full, now + 0.5)
    return full


def assert_lookup_identical(sharded, oracle, queries):
    """The differential check: sharded lookups must equal the oracle's
    exactly — same replica sets, same depths, byte for byte."""
    for query in queries:
        query = np.asarray(query, dtype=np.int32)
        for limit in (len(query), max(len(query) - 1, 0)):
            got = sharded.lookup(query, limit=limit)
            want = oracle.lookup(query, limit=limit)
            assert got.kv_matched == want.kv_matched, (
                f"kv divergence for {len(query)}-token query at limit {limit}: "
                f"sharded {got.kv_matched} != oracle {want.kv_matched}"
            )
            assert got.ckpt_depth == want.ckpt_depth, (
                f"ckpt divergence for {len(query)}-token query at limit {limit}: "
                f"sharded {got.ckpt_depth} != oracle {want.ckpt_depth}"
            )
            assert got.ckpt_depths == want.ckpt_depths


def fresh_cache(model=HYBRID, capacity=int(1e12), alpha=0.0):
    return MarconiCache(model, capacity, alpha=alpha)


class TestShardedValidation:
    def test_constructor_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ShardedPrefixDirectory(n_shards=0)
        with pytest.raises(ValueError):
            ShardedPrefixDirectory(region_tokens=0)
        with pytest.raises(ValueError):
            ShardedPrefixDirectory(propagation_delay=-1.0)
        with pytest.raises(ValueError):
            ShardedPrefixDirectory(gossip_budget=0)
        with pytest.raises(ValueError):
            ShardedPrefixDirectory(propagation_delay=1.0, gossip_interval=0.0)

    def test_drop_gossip_rejects_bad_batches(self):
        with pytest.raises(ValueError):
            ShardedPrefixDirectory().drop_gossip(batches=0)

    def test_fail_shard_rejects_unknown_index(self):
        with pytest.raises(ValueError):
            ShardedPrefixDirectory(n_shards=2).fail_shard(5)

    def test_attach_contract_matches_oracle(self):
        """Opaque caches and probe-owning caches are left untracked (the
        router probes them) under the sharded backend exactly as under the
        oracle."""

        class Opaque:
            pass

        class WithProbe:
            tree = None

            def probe(self, tokens):
                return 7

        sharded = ShardedPrefixDirectory(n_shards=3)
        assert not sharded.attach(0, Opaque())
        assert not sharded.attach(1, WithProbe())
        assert sharded.attach(2, fresh_cache())
        assert sharded.stats.untracked_replicas == 2
        assert sharded.replicas == (2,)
        assert sharded.tracked(2) and not sharded.tracked(0)

    def test_attach_rebinds_on_cache_change(self):
        sharded = ShardedPrefixDirectory(n_shards=2, region_tokens=4)
        old, new = fresh_cache(), fresh_cache()
        sharded.attach(0, old)
        full = serve(old, tiny(20, 1), 0.0)
        assert sharded.lookup(full, limit=len(full)).ckpt_depth
        # Same slot, different cache (an elastic join reusing the index):
        # the old cache's entries must vanish, the new tree is resynced.
        sharded.attach(0, new)
        assert not sharded.lookup(full, limit=len(full)).ckpt_depth
        full2 = serve(new, tiny(16, 2), 1.0)
        assert sharded.lookup(full2, limit=len(full2)).ckpt_depth == {0: len(full2)}


class TestHashRing:
    def test_remove_keeps_surviving_assignments(self):
        """Consistent hashing's point: killing one shard remaps only that
        shard's keys — every key owned by a survivor keeps its owner."""
        ring = _HashRing(shards=8)
        keys = [int(k) for k in np.random.default_rng(0).integers(0, 2**32, 500)]
        before = {key: ring.lookup(key) for key in keys}
        ring.remove(3)
        for key, owner in before.items():
            if owner != 3:
                assert ring.lookup(key) == owner
            else:
                assert ring.lookup(key) != 3

    def test_empty_ring_maps_nothing(self):
        ring = _HashRing(shards=1)
        ring.remove(0)
        assert ring.lookup(12345) is None


class TestZeroDelayConformance:
    """Hand-written differential scenarios at propagation_delay=0."""

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    @pytest.mark.parametrize("region_tokens", [2, 4, 32])
    def test_serve_evict_reset_identical(self, n_shards, region_tokens):
        per_seq = node_state_bytes(HYBRID, 64, True)
        caches = [MarconiCache(HYBRID, 3 * per_seq, alpha=1.0) for _ in range(3)]
        sharded = ShardedPrefixDirectory(n_shards=n_shards, region_tokens=region_tokens)
        oracle = PrefixDirectory()
        for i, cache in enumerate(caches):
            assert sharded.attach(i, cache) == oracle.attach(i, cache)
        now = 0.0
        for step in range(18):
            cache = caches[step % 3]
            if step % 7 == 6:
                cache.reset()
            else:
                with cache.begin(tiny(8 + 3 * step, step % 5), now) as session:
                    session.commit(tiny(12 + 3 * step, step % 5), now + 0.5)
            now += 1.0
        sharded.check_integrity()
        oracle.check_integrity()
        queries = [tiny(n, s) for n in (1, 5, 30, 70) for s in range(5)]
        assert_lookup_identical(sharded, oracle, queries)

    def test_transformer_mid_edge_identical(self):
        """Raw KV matches that end mid-edge (no checkpoint alignment) must
        survive the region truncation unchanged."""
        cache = MarconiCache(TRANSFORMER, int(1e12), alpha=0.0)
        sharded = ShardedPrefixDirectory(n_shards=4, region_tokens=8)
        oracle = PrefixDirectory()
        sharded.attach(0, cache)
        oracle.attach(0, cache)
        seq = toks(300, 40)
        serve(cache, seq, 0.0)
        queries = [
            np.concatenate([seq[:137], toks(60, 41)]),
            seq[:5],  # shorter than the region: answered from the
            seq[:8],  # truncated replicas present on every shard
            np.concatenate([seq, toks(10, 42)]),
        ]
        assert_lookup_identical(sharded, oracle, queries)

    def test_truncation_identical(self):
        cache = MarconiCache(TRANSFORMER, int(1e12), alpha=0.0)
        sharded = ShardedPrefixDirectory(n_shards=3, region_tokens=4)
        oracle = PrefixDirectory()
        sharded.attach(0, cache)
        oracle.attach(0, cache)
        full = serve(cache, toks(400, 30), 0.0)
        leaf = max(cache.tree.iter_nodes(), key=lambda n: n.seq_len)
        cache.tree.truncate_leaf(leaf, leaf.kv_tokens // 2)
        sharded.check_integrity()
        assert_lookup_identical(
            sharded, oracle, [np.concatenate([full, toks(5, 31)]), full[:3]]
        )

    def test_detach_and_rejoin_identical(self):
        caches = [fresh_cache() for _ in range(3)]
        sharded = ShardedPrefixDirectory(n_shards=3, region_tokens=4)
        oracle = PrefixDirectory()
        for i, cache in enumerate(caches):
            sharded.attach(i, cache)
            oracle.attach(i, cache)
        fulls = [serve(caches[i], tiny(20 + i, i), float(i)) for i in range(3)]
        sharded.detach(1)
        oracle.detach(1)
        assert_lookup_identical(sharded, oracle, fulls)
        # Rejoin with warm content: attach resyncs on both backends.
        joiner = fresh_cache()
        full_j = serve(joiner, tiny(25, 9), 5.0)
        sharded.attach(3, joiner)
        oracle.attach(3, joiner)
        assert_lookup_identical(sharded, oracle, fulls + [full_j])
        assert sharded.replicas == oracle.replicas == (0, 2, 3)

    def test_interned_tokens_lookup_identical(self):
        """TokenSeq queries take the prefix-hash fast path and hand the
        walk their cached bytes; int64 arrays, strided views and lists are
        canonicalized once (memcmp on a non-int32 buffer would be a silent
        miss).  All must pick the same shard and walk like the oracle."""
        cache = fresh_cache()
        sharded = ShardedPrefixDirectory(n_shards=4, region_tokens=8)
        oracle = PrefixDirectory()
        sharded.attach(0, cache)
        oracle.attach(0, cache)
        full = serve(cache, toks(100, 50), 0.0)
        for query in (
            np.concatenate([full, toks(5, 51)]),  # runs past the leaf
            full[:60],  # ends mid-edge, past the region
            full[:8],  # exactly the region
            full[:5],  # inside the region: answered by any shard
            np.concatenate([full[:40], toks(9, 52)]),  # diverges mid-edge
        ):
            want = oracle.lookup(query, limit=len(query) - 1)
            assert want.kv_matched
            strided = np.repeat(query, 2)[::2]
            for spelling in (
                TokenSeq(query),
                query,
                query.astype(np.int64),
                strided,
                query.tolist(),
            ):
                assert sharded._region_key(spelling) == sharded._region_key(query)
                assert sharded.lookup(spelling, limit=len(query) - 1) == want

    def test_close_detaches_everything(self):
        cache = fresh_cache()
        sharded = ShardedPrefixDirectory(n_shards=2)
        sharded.attach(0, cache)
        sharded.close()
        assert sharded.replicas == ()
        # Observer removed: further cache activity must not be indexed.
        full = serve(cache, tiny(12, 3), 0.0)
        assert not sharded.lookup(full, limit=len(full)).ckpt_depth


class TestRegionBoundary:
    """A non-owner shard drops an op that starts changing the index at or
    past ``region_tokens`` (past it, for a checkpoint) before touching a
    token.  Every kind of depth an op carries — a replica node boundary (a
    mark's start), a clear's or truncation's keep-depth, a checkpoint's
    depth — is driven onto ``region_tokens - 1``, ``region_tokens`` and
    ``region_tokens + 1``, with the oracle and ``check_integrity`` consulted
    after every single tree event."""

    @staticmethod
    def _events(tree, a, b, boundary):
        """Tree events of one replica around a node boundary at ``boundary``;
        yields after each one that reaches the directory."""
        leaf_a = tree.insert(a, 0.0).end_node  # mark from depth 0
        yield
        grown = tree.insert(b, 1.0)  # split at `boundary`, mark from it
        middle, leaf_b = grown.split_node, grown.end_node
        assert middle.seq_len == boundary == leaf_b.parent_seq_len
        yield
        tree.set_checkpoint(middle)  # checkpoint at `boundary`
        yield
        tree.set_checkpoint(leaf_a)  # ... and a deep one
        yield
        tree.truncate_leaf(leaf_b, 1)  # keep-depth `boundary + 1`
        yield
        tree.clear_checkpoint(middle)
        yield
        tree.remove_leaf(leaf_b)  # clear with keep-depth `boundary`
        yield
        tree.clear_checkpoint(leaf_a)
        yield
        tree.merge_into_child(middle)  # no directory event
        tree.truncate_leaf(leaf_a, boundary)  # keep-depth `boundary`
        yield
        tree.remove_leaf(leaf_a)  # keep-depth 0: every shard clears
        yield

    @classmethod
    def _drive(cls, caches, boundary, first, check):
        """Both replicas step through :meth:`_events` in turn on the same
        two paths (``first`` keeps scenarios in distinct regions)."""
        rng = np.random.default_rng(1000 * first + boundary)
        stem = np.concatenate([[first], rng.integers(100, 30000, boundary - 1)])
        # Two tokens past the boundary: the shallowest scenario's leaves
        # end at ``region_tokens + 1``, one past what a non-owner stores.
        a = np.concatenate([stem, [40_001], rng.integers(100, 30000, 1)]).astype(np.int32)
        b = np.concatenate([stem, [40_002], rng.integers(100, 30000, 1)]).astype(np.int32)
        queries = [a, b, a[:boundary], a[: boundary + 1], np.concatenate([b, [7, 8]])]
        if boundary > 1:
            queries.append(a[: boundary - 1])
        replicas = [cls._events(cache.tree, a, b, boundary) for cache in caches]
        # Replica 1 trails replica 0 by two events, so each op meets the
        # other replica's entries in a different state.
        order = replicas[:1] * 2 + [r for _ in range(8) for r in replicas[::-1]] + replicas[1:] * 2
        for replica in order:
            next(replica)
            check(queries)

    @pytest.mark.parametrize("n_shards", [1, 2, 8])
    @pytest.mark.parametrize("region_tokens", [1, 4, 32])
    def test_every_op_depth_on_the_boundary(self, n_shards, region_tokens):
        caches = [fresh_cache() for _ in range(2)]
        sharded = ShardedPrefixDirectory(n_shards=n_shards, region_tokens=region_tokens)
        oracle = PrefixDirectory()
        for i, cache in enumerate(caches):
            sharded.attach(i, cache)
            oracle.attach(i, cache)
        seen = []

        def check(queries):
            seen.extend(queries)
            sharded.check_integrity()
            oracle.check_integrity()
            assert_lookup_identical(sharded, oracle, queries)
            # What fits in the region is held by every shard, owner or not.
            for query in queries:
                if len(query) <= region_tokens:
                    want = oracle.lookup(query)
                    for shard in sharded.shards:
                        assert not shard.alive or shard.directory.lookup(query) == want

        boundaries = [b for b in (region_tokens - 1, region_tokens, region_tokens + 1) if b]
        for first, boundary in enumerate(boundaries, start=1):
            self._drive(caches, boundary, first, check)
        # Leave content behind for the shard loss to re-home, then repeat.
        keep = [serve(caches[i], toks(region_tokens + 3 + i, 70 + i), 9.0) for i in (0, 1)]
        check(keep)
        if n_shards > 1:
            sharded.fail_shard(sharded.shard_for(keep[0]))
            check(keep + seen)
            for first, boundary in enumerate(boundaries, start=11):
                self._drive(caches, boundary, first, check)
            check(keep)


@st.composite
def sharded_op_stream(draw):
    """A randomized fleet history: serves, aborts, resets, truncations,
    replica failures, and mid-stream joins, over a tiny vocabulary."""
    n_replicas = draw(st.integers(2, 3))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_replicas + 1),  # replica slot (incl. joiners)
                st.sampled_from(
                    ["serve", "serve", "serve", "abort", "reset", "truncate",
                     "fail", "join"]
                ),
                st.integers(1, 60),  # length
                st.integers(0, 5),  # vocab seed
            ),
            min_size=4,
            max_size=24,
        )
    )
    queries = draw(
        st.lists(
            st.tuples(st.integers(1, 80), st.integers(0, 5)),
            min_size=3,
            max_size=8,
        )
    )
    n_shards = draw(st.integers(1, 5))
    region_tokens = draw(st.sampled_from([2, 4, 8]))
    return n_replicas, ops, queries, n_shards, region_tokens


def _replay(stream, sharded, oracle, tight):
    """Drive one op stream into both backends; returns the query arrays."""
    n_replicas, ops, queries, _, _ = stream
    per_seq = node_state_bytes(HYBRID, 64, True)
    capacity = 3 * per_seq if tight else int(1e12)
    caches: dict[int, MarconiCache] = {}
    for i in range(n_replicas):
        caches[i] = MarconiCache(HYBRID, capacity, alpha=1.0)
        sharded.attach(i, caches[i])
        oracle.attach(i, caches[i])
    next_slot = n_replicas
    now = 0.0
    for slot, action, length, vocab_seed in ops:
        now += 1.0
        if action == "join":
            cache = MarconiCache(HYBRID, capacity, alpha=1.0)
            serve(cache, tiny(length, vocab_seed), now)  # join warm
            caches[next_slot] = cache
            sharded.attach(next_slot, cache)
            oracle.attach(next_slot, cache)
            next_slot += 1
            continue
        live = sorted(caches)
        replica = live[slot % len(live)]
        cache = caches[replica]
        if action == "fail":
            if len(caches) <= 1:
                continue  # keep at least one replica serving
            sharded.detach(replica)
            oracle.detach(replica)
            del caches[replica]
        elif action == "reset":
            cache.reset()
        elif action == "truncate":
            leaves = [
                n
                for n in cache.tree.iter_nodes()
                if n.is_leaf and n.kv_tokens > 1 and not n.has_ssm_state
            ]
            if leaves:
                leaf = max(leaves, key=lambda n: n.seq_len)
                cache.tree.truncate_leaf(leaf, leaf.kv_tokens // 2)
        else:
            seq = tiny(length, vocab_seed)
            session = cache.begin(seq, now)
            if action == "abort":
                session.abort()
            else:
                session.commit(
                    np.concatenate([seq, tiny(4, vocab_seed + 7)]), now + 0.5
                )
    return [tiny(n, s) for n, s in queries]


class TestShardedProperties:
    @settings(max_examples=40, deadline=None)
    @given(sharded_op_stream(), st.booleans())
    def test_randomized_lookup_identity(self, stream, tight):
        """The tentpole invariant: at zero delay, any shard count and
        region size, lookups are byte-identical to the oracle under any
        operation stream (including eviction pressure)."""
        _, _, _, n_shards, region_tokens = stream
        sharded = ShardedPrefixDirectory(n_shards=n_shards, region_tokens=region_tokens)
        oracle = PrefixDirectory()
        query_arrays = _replay(stream, sharded, oracle, tight)
        sharded.check_integrity()
        oracle.check_integrity()
        assert_lookup_identical(sharded, oracle, query_arrays)

    @settings(max_examples=20, deadline=None)
    @given(sharded_op_stream())
    def test_randomized_router_decision_identity(self, stream):
        """Routers backed by the sharded directory and by the oracle pick
        the replica the affinity rule picks over every replica's probed
        hit, for any fleet state."""
        n_replicas, ops, queries, n_shards, region_tokens = stream
        caches = [fresh_cache() for _ in range(n_replicas)]
        now = 0.0
        for slot, action, length, vocab_seed in ops:
            if action in ("fail", "join", "truncate", "reset"):
                continue  # fixed fleet: this suite pins decisions only
            now += 1.0
            seq = tiny(length, vocab_seed)
            session = caches[slot % n_replicas].begin(seq, now)
            if action == "abort":
                session.abort()
            else:
                session.commit(
                    np.concatenate([seq, tiny(4, vocab_seed + 7)]), now + 0.5
                )
        reference = PrefixAffinityRouter()  # only its _select, fed the probes
        oracle_backed = PrefixAffinityRouter()
        sharded_backed = PrefixAffinityRouter(
            directory_factory=lambda: ShardedPrefixDirectory(
                n_shards=n_shards, region_tokens=region_tokens
            )
        )
        loads_cycle = [[i % 3 for i in range(n_replicas)], [0] * n_replicas]
        for qi, (n, s) in enumerate(queries):
            query = tiny(n, s)
            loads = loads_cycle[qi % 2]
            hits = (probe_hit_tokens(c, query) for c in caches)
            want = reference._select({i: h for i, h in enumerate(hits) if h}, loads)
            assert oracle_backed.route(query, qi, caches, loads, now) == want
            assert sharded_backed.route(query, qi, caches, loads, now) == want
        for router in (oracle_backed, sharded_backed):
            router.release()


class TestBoundedStaleness:
    def test_updates_invisible_until_delay_passes(self):
        sharded = ShardedPrefixDirectory(
            n_shards=3, region_tokens=4, propagation_delay=5.0, gossip_interval=1.0
        )
        transport = ManualGossipTransport()
        sharded.connect_transport(transport)
        cache = fresh_cache()
        sharded.attach(0, cache)
        full = serve(cache, tiny(20, 1), 0.0)
        # Routed against the stale view: nothing visible yet.
        assert sharded.lookup(full, limit=len(full)).ckpt_depth == {}
        transport.run_until(4.9)
        assert sharded.lookup(full, limit=len(full)).ckpt_depth == {}
        transport.run_until(5.0)
        assert sharded.lookup(full, limit=len(full)).ckpt_depth == {0: len(full)}
        snap = sharded.staleness()
        assert snap["updates_pending"] == 0
        assert snap["updates_applied"] > 0

    def test_converges_to_oracle_after_pump(self):
        """Async mode is eventually exact: once every queued update is
        applied, lookups equal the synchronous oracle again."""
        sharded = ShardedPrefixDirectory(
            n_shards=3, region_tokens=4, propagation_delay=2.0, gossip_interval=1.0
        )
        oracle = PrefixDirectory()
        caches = [fresh_cache(), fresh_cache()]
        for i, cache in enumerate(caches):
            sharded.attach(i, cache)
            oracle.attach(i, cache)
        fulls = []
        for step in range(8):
            sharded.advance_to(float(step))
            fulls.append(serve(caches[step % 2], tiny(10 + step, step % 3), float(step)))
        sharded.pump(upto=100.0)
        sharded.check_integrity()
        assert_lookup_identical(sharded, oracle, fulls)

    def test_gossip_budget_throttles_per_flush(self):
        sharded = ShardedPrefixDirectory(
            n_shards=1,
            region_tokens=4,
            propagation_delay=1.0,
            gossip_budget=2,
            gossip_interval=0.5,
        )
        transport = ManualGossipTransport()
        sharded.connect_transport(transport)
        cache = fresh_cache()
        sharded.attach(0, cache)
        for i in range(6):
            serve(cache, tiny(12 + i, i), 0.0)
        shard = sharded.shards[0]
        backlog = len(shard.pending)
        assert backlog > 4
        transport.run_until(1.0)  # first flush: exactly budget-many apply
        assert shard.applied <= 2 and len(shard.pending) == backlog - shard.applied
        transport.run_until(50.0)  # retries drain the rest at the interval
        assert len(shard.pending) == 0
        assert shard.applied == backlog
        assert shard.flushes >= (backlog + 1) // 2

    def test_lookup_age_telemetry(self):
        sharded = ShardedPrefixDirectory(
            n_shards=1, region_tokens=4, propagation_delay=10.0, gossip_interval=1.0
        )
        transport = ManualGossipTransport()
        sharded.connect_transport(transport)
        cache = fresh_cache()
        sharded.attach(0, cache)
        full = serve(cache, tiny(16, 2), 0.0)
        transport.run_until(7.0)
        sharded.lookup(full, limit=len(full))  # oldest queued update: age 7
        snap = sharded.staleness()
        assert snap["lookup_age_max"] == pytest.approx(7.0)
        assert snap["lookup_age_p95"] > 0.0
        transport.run_until(20.0)
        sharded.lookup(full, limit=len(full))  # queue drained: age 0
        assert sharded.staleness()["lookup_age_p50"] < 7.0

    def test_reconnect_transport_reschedules_pending(self):
        sharded = ShardedPrefixDirectory(
            n_shards=2, region_tokens=4, propagation_delay=1.0, gossip_interval=0.5
        )
        first = ManualGossipTransport()
        sharded.connect_transport(first)
        cache = fresh_cache()
        sharded.attach(0, cache)
        full = serve(cache, tiny(14, 4), 0.0)
        # The first transport dies mid-run (a kernel run ends); a second
        # one picks the queue up without losing the backlog.
        second = ManualGossipTransport(start=first.now())
        sharded.connect_transport(second)
        second.run_until(30.0)
        assert sharded.staleness()["updates_pending"] == 0
        assert sharded.lookup(full, limit=len(full)).ckpt_depth == {0: len(full)}

    def test_staleness_snapshot_shape(self):
        sharded = ShardedPrefixDirectory(n_shards=2)
        cache = fresh_cache()
        sharded.attach(0, cache)
        serve(cache, tiny(10, 1), 0.0)
        sharded.lookup(tiny(10, 1), limit=10)
        snap = sharded.staleness()
        for key in (
            "backend",
            "n_shards",
            "live_shards",
            "region_tokens",
            "events",
            "lookups",
            "updates_applied",
            "updates_pending",
            "updates_dropped",
            "lookup_age_p50",
            "lookup_age_p95",
            "lookup_age_max",
            "per_shard",
        ):
            assert key in snap
        assert snap["backend"] == "sharded"
        assert len(snap["per_shard"]) == 2
        for entry in snap["per_shard"]:
            assert {"shard", "alive", "applied_updates", "pending_updates"} <= set(entry)

    def test_queued_updates_share_one_write_protected_path(self):
        """A commit's mark and checkpoint name the same leaf: the bridge
        serializes its root path once, and both queued updates carry that
        one array and its bytes — read-only, because they outlive the event
        (the leaf's edge may since have been split or truncated)."""
        sharded = ShardedPrefixDirectory(
            n_shards=1, region_tokens=4, propagation_delay=1.0, gossip_interval=0.5
        )
        cache = fresh_cache()
        sharded.attach(0, cache)
        sharded.pump(upto=5.0)
        full = serve(cache, toks(20, 3), 5.0)
        # begin() marked the 20-token input; commit() hung the output under it.
        _, mark, ckpt = [update for _, _, update in sharded.shards[0].pending]
        assert (mark.kind, mark.depth) == (0, 20) and (ckpt.kind, ckpt.depth) == (3, len(full))
        assert ckpt.tokens is mark.tokens and ckpt.data is mark.data
        assert isinstance(mark.data, bytes) and mark.data == full.tobytes()
        assert mark.tokens.dtype == np.int32 and not mark.tokens.flags.writeable
        with pytest.raises(ValueError):
            mark.tokens[0] = 1
        assert not np.shares_memory(mark.tokens, full)
        for node in cache.tree.iter_nodes():
            assert not np.shares_memory(mark.tokens, node.edge_tokens)

    def test_synchronous_lookups_record_no_ages(self):
        """Synchronous gossip applies inline, so every lookup's age is 0.0:
        the directory must not keep one float per lookup for its lifetime,
        and the exported age percentiles keep their all-zero shape."""
        sharded = ShardedPrefixDirectory(n_shards=2)
        cache = fresh_cache()
        sharded.attach(0, cache)
        full = serve(cache, tiny(10, 1), 0.0)
        for _ in range(10_000):
            sharded.lookup(full, limit=len(full))
        assert sharded._lookup_ages == []
        snap = sharded.staleness()
        assert snap["lookups"] == 10_000
        for key in ("lookup_age_p50", "lookup_age_p95", "lookup_age_max"):
            assert snap[key] == 0.0 and isinstance(snap[key], float)


class TestShardFaults:
    def test_fail_shard_recovers_exactly(self):
        caches = [fresh_cache() for _ in range(2)]
        sharded = ShardedPrefixDirectory(n_shards=4, region_tokens=4)
        oracle = PrefixDirectory()
        for i, cache in enumerate(caches):
            sharded.attach(i, cache)
            oracle.attach(i, cache)
        fulls = [serve(caches[i], tiny(18 + i, i), float(i)) for i in range(2)]
        sharded.fail_shard(1)
        assert sharded.live_shards == 3
        assert sharded.staleness()["shard_losses"] == 1
        sharded.check_integrity()
        # Synchronous anti-entropy: survivors answer exactly, immediately.
        assert_lookup_identical(sharded, oracle, fulls + [tiny(30, 5)])
        # ...and keep tracking live mutations after the remap.
        fulls.append(serve(caches[0], tiny(33, 7), 9.0))
        assert_lookup_identical(sharded, oracle, fulls)

    def test_fail_shard_async_recovers_after_delay(self):
        sharded = ShardedPrefixDirectory(
            n_shards=3, region_tokens=4, propagation_delay=2.0, gossip_interval=1.0
        )
        transport = ManualGossipTransport()
        sharded.connect_transport(transport)
        oracle = PrefixDirectory()
        cache = fresh_cache()
        sharded.attach(0, cache)
        oracle.attach(0, cache)
        full = serve(cache, tiny(24, 1), 0.0)
        transport.run_until(10.0)
        sharded.fail_shard(0)
        transport.run_until(30.0)  # one propagation delay rebuilds the remap
        sharded.check_integrity()
        assert_lookup_identical(sharded, oracle, [full, tiny(40, 2)])

    def test_all_shards_lost_reports_empty(self):
        sharded = ShardedPrefixDirectory(n_shards=2, region_tokens=4)
        cache = fresh_cache()
        sharded.attach(0, cache)
        full = serve(cache, tiny(12, 1), 0.0)
        sharded.fail_shard(0)
        sharded.fail_shard(1)
        assert sharded.live_shards == 0
        lookup = sharded.lookup(full, limit=len(full))
        assert not lookup.ckpt_depth and not lookup.kv_matched

    def test_fail_shard_idempotent(self):
        sharded = ShardedPrefixDirectory(n_shards=2)
        sharded.fail_shard(0)
        sharded.fail_shard(0)
        assert sharded.staleness()["shard_losses"] == 1

    def test_dropped_gossip_recovers_exactly(self):
        sharded = ShardedPrefixDirectory(
            n_shards=2, region_tokens=4, propagation_delay=1.0, gossip_interval=0.5
        )
        transport = ManualGossipTransport()
        sharded.connect_transport(transport)
        oracle = PrefixDirectory()
        cache = fresh_cache()
        sharded.attach(0, cache)
        oracle.attach(0, cache)
        full = serve(cache, tiny(20, 2), 0.0)
        sharded.drop_gossip()  # every shard loses its next batch in transit
        transport.run_until(50.0)
        snap = sharded.staleness()
        assert snap["updates_dropped"] > 0
        assert snap["updates_pending"] == 0
        sharded.check_integrity()
        assert_lookup_identical(sharded, oracle, [full, tiny(35, 4)])

    def test_dropped_gossip_single_shard_counts(self):
        sharded = ShardedPrefixDirectory(
            n_shards=3, region_tokens=4, propagation_delay=1.0, gossip_interval=0.5
        )
        transport = ManualGossipTransport()
        sharded.connect_transport(transport)
        cache = fresh_cache()
        sharded.attach(0, cache)
        serve(cache, tiny(15, 3), 0.0)
        sharded.drop_gossip(shard=1, batches=1)
        transport.run_until(50.0)
        snap = sharded.staleness()
        per_shard = {entry["shard"]: entry for entry in snap["per_shard"]}
        assert per_shard[1]["dropped_batches"] == 1
        assert per_shard[0]["dropped_batches"] == 0
        assert per_shard[2]["dropped_batches"] == 0

    def test_stale_entries_eventually_invalidated(self):
        """An invalidation races in-flight lookups: stale shards keep
        answering with the dead replica until the gossip lands, then the
        entries are gone everywhere."""
        sharded = ShardedPrefixDirectory(
            n_shards=2, region_tokens=4, propagation_delay=3.0, gossip_interval=1.0
        )
        transport = ManualGossipTransport()
        sharded.connect_transport(transport)
        cache = fresh_cache()
        sharded.attach(0, cache)
        full = serve(cache, tiny(22, 5), 0.0)
        transport.run_until(10.0)
        assert sharded.lookup(full, limit=len(full)).ckpt_depth  # warm
        sharded.detach(0)  # failure: invalidation is gossiped, not instant
        assert sharded.lookup(full, limit=len(full)).ckpt_depth  # stale window
        transport.run_until(20.0)
        lookup = sharded.lookup(full, limit=len(full))
        assert not lookup.ckpt_depth and not lookup.kv_matched
        sharded.check_integrity()

    def test_checkpoint_after_a_lost_mark_still_lands_on_full_coverage(self):
        """The mark of a new leaf is lost in a dropped batch; the leaf's
        checkpoint is applied next, ahead of the recovery resync (a budget
        of one update per flush keeps the two apart).  Applying it marks
        and checkpoints in one descent, so the owner never holds a
        checkpoint over missing coverage, a non-owner (which drops the deep
        checkpoint untouched) holds nothing stale, and the resync converges
        every shard to the oracle."""
        sharded = ShardedPrefixDirectory(
            n_shards=2,
            region_tokens=4,
            propagation_delay=1.0,
            gossip_budget=1,
            gossip_interval=0.5,
        )
        transport = ManualGossipTransport()
        sharded.connect_transport(transport)
        oracle = PrefixDirectory()
        cache = fresh_cache()
        sharded.attach(0, cache)
        oracle.attach(0, cache)
        transport.run_until(5.0)  # the attach-time resyncs are history
        path = toks(10, 77)
        leaf = cache.tree.insert(path, 5.0).end_node  # mark: due at 6.0
        transport.run_until(5.5)
        cache.tree.set_checkpoint(leaf)  # checkpoint: due at 6.5
        sharded.drop_gossip()
        transport.run_until(6.0)  # the mark's batch is lost on every shard
        assert sharded.staleness()["updates_dropped"] == 2
        assert not sharded.lookup(path).kv_matched
        transport.run_until(7.0)  # the checkpoint applies; the resync is next
        assert sharded.staleness()["updates_pending"] == 2
        assert [s.pending[0][2].snapshot is not None for s in sharded.shards] == [True] * 2
        sharded.check_integrity()
        assert sharded.lookup(path) == oracle.lookup(path)
        owner = sharded.shard_for(path)
        assert sharded.shards[1 - owner].directory.stats.n_nodes == 0
        transport.run_until(10.0)
        assert sharded.staleness()["updates_pending"] == 0
        sharded.check_integrity()
        assert_lookup_identical(sharded, oracle, [path, path[:4], path[:3], toks(6, 78)])
        for shard in sharded.shards:  # the region's head is on both again
            assert shard.directory.lookup(path[:4]) == oracle.lookup(path[:4])


class TestSharedBackendRouting:
    def test_two_routers_share_one_sharded_view(self):
        """A multi-router contention setup: both routers bind the same
        externally owned backend, neither closes it on release."""
        backend = ShardedPrefixDirectory(n_shards=3, region_tokens=8)
        router_a = PrefixAffinityRouter(directory=backend)
        router_b = PrefixAffinityRouter(directory=backend)
        caches = [fresh_cache() for _ in range(3)]
        full = serve(caches[1], toks(120, 6), 0.0)
        query = np.concatenate([full, toks(5, 7)])
        loads = [0, 0, 0]
        assert router_a.route(query, 0, caches, loads, 1.0) == 1
        assert router_b.route(query, 1, caches, loads, 1.0) == 1
        assert backend.stats.lookups >= 2
        router_a.release()
        router_b.release()
        # The shared backend survives both releases, still attached.
        assert backend.replicas == (0, 1, 2)
        assert backend.lookup(query, limit=len(query) - 1).ckpt_depth
        backend.close()
        assert backend.replicas == ()

    def test_directory_router_accepts_sharded_backend(self):
        backend = ShardedPrefixDirectory(n_shards=2, region_tokens=8)
        router = DirectoryRouter(directory=backend)
        caches = [fresh_cache() for _ in range(2)]
        full = serve(caches[0], toks(150, 8), 0.0)
        decision = router.decide(
            np.concatenate([full, toks(5, 9)]), 0, caches, [0, 0], 1.0
        )
        assert decision.replica == 0
        assert router.directory is backend
        stats = router.directory_stats
        assert stats["backend"] == "sharded"
        router.release()
        backend.close()

    def test_hierarchical_in_registry_with_sharded_factory(self):
        router = make_router(
            "hierarchical",
            rack_size=2,
            directory_factory=lambda: ShardedPrefixDirectory(n_shards=2),
        )
        assert isinstance(router, HierarchicalRouter)
        caches = [fresh_cache() for _ in range(4)]
        full = serve(caches[3], toks(90, 10), 0.0)
        choice = router.route(
            np.concatenate([full, toks(4, 11)]), 0, caches, [0, 0, 0, 0], 1.0
        )
        assert choice == 3
        assert router.directory_stats["backend"] == "sharded"
        router.release()


class TestOneRoutingRead:
    """A prefix router reads its directory at every fleet size: the one it
    was handed, or a ``PrefixDirectory`` it builds and owns."""

    def _routed(self, router, n_replicas, seed):
        caches = [fresh_cache() for _ in range(n_replicas)]
        full = serve(caches[0], toks(100, seed), 0.0)
        query = np.concatenate([full, toks(5, 100 + seed)])
        router.prepare(HYBRID, caches, None)
        assert router.route(query, 0, caches, [0] * n_replicas, 1.0) == 0
        return router

    def test_default_router_reads_a_directory_at_every_size(self):
        for n in (1, 2, 31, 32, 64):
            router = self._routed(PrefixAffinityRouter(), n, 12 + n)
            assert isinstance(router.directory, PrefixDirectory), n
            assert router.directory_stats is not None
            router.release()

    def test_block_store_is_probed_through_the_fallback_rule(self):
        """A vLLM+ block store has its own ``probe``: the directory leaves it
        untracked, and the router reads its hit from ``probe_hit_tokens``."""
        caches = [fresh_cache(), VLLMPlusCache(HYBRID, int(1e12), block_size=4)]
        router = PrefixAffinityRouter()
        router.prepare(HYBRID, caches, None)
        assert router._rules["fallback"] == {1}
        assert not router.directory.tracked(1)
        full = serve(caches[1], toks(40, 15), 0.0)
        query = np.concatenate([full, toks(5, 115)])
        assert probe_hit_tokens(caches[1], query) > 0
        assert router._hits(query, caches) == {1: probe_hit_tokens(caches[1], query)}
        assert router.route(query, 0, caches, [0, 0], 1.0) == 1
        router.release()

    def test_handed_backend_is_read(self):
        """A backend handed in is read, and a DirectoryRouter handed none
        builds its own."""
        for router in (
            PrefixAffinityRouter(
                directory_factory=lambda: ShardedPrefixDirectory(n_shards=2)
            ),
            PrefixAffinityRouter(directory=ShardedPrefixDirectory(n_shards=2)),
            DirectoryRouter(),
        ):
            assert self._routed(router, 3, 14).directory is not None
            router.release()

    def test_two_backends_refused(self):
        """Two backends at once are refused."""
        with pytest.raises(ValueError):
            PrefixAffinityRouter(
                directory=ShardedPrefixDirectory(),
                directory_factory=ShardedPrefixDirectory,
            )

    def test_decisions_match_the_probe_reference(self):
        """At 2 and 33 replicas the router left to its default and one
        handed a sharded backend agree with the affinity rule over every
        replica's probed hit."""
        for n in (2, 33):
            caches = [fresh_cache() for _ in range(n)]
            for i in (1, 4, n - 1):
                serve(caches[i % n], tiny(30 + i % 7, i % 5), float(i))
            auto = PrefixAffinityRouter()
            backed = PrefixAffinityRouter(
                directory_factory=lambda: ShardedPrefixDirectory(n_shards=2)
            )
            reference = PrefixAffinityRouter()
            for qi in range(8):
                query = tiny(10 + qi * 5, qi % 3)
                loads = [qi % 2] * n
                hits = [probe_hit_tokens(cache, query) for cache in caches]
                want = reference._select({i: h for i, h in enumerate(hits) if h}, loads)
                assert auto.route(query, qi, caches, loads, 10.0) == want
                assert backed.route(query, qi, caches, loads, 10.0) == want
            auto.release()
            backed.release()


class TestHierarchicalRouting:
    def _warm(self, caches, replica, seed):
        return serve(caches[replica], toks(200, seed), 0.0, out_seed=seed + 100)

    def test_small_fleet_degrades_to_flat(self):
        flat = PrefixAffinityRouter()
        hier = HierarchicalRouter(rack_size=8)
        caches = [fresh_cache() for _ in range(4)]
        full = self._warm(caches, 2, 20)
        query = np.concatenate([full, toks(5, 21)])
        for loads in ([0, 0, 0, 0], [3, 1, 0, 2]):
            assert hier.route(query, 0, caches, loads, 1.0) == flat.route(
                query, 0, caches, loads, 1.0
            )

    def test_affinity_goes_to_owning_rack(self):
        hier = HierarchicalRouter(rack_size=2)
        caches = [fresh_cache() for _ in range(6)]
        full = self._warm(caches, 4, 22)  # rack 2 owns the prefix
        query = np.concatenate([full, toks(5, 23)])
        assert hier.route(query, 0, caches, [0] * 6, 1.0) == 4
        assert hier.decision_stats.get("rack_affinity", 0) == 1

    def test_overload_spills_rack_local(self):
        hier = HierarchicalRouter(rack_size=2, rack_max_imbalance=1)
        caches = [fresh_cache() for _ in range(6)]
        full = self._warm(caches, 4, 24)
        query = np.concatenate([full, toks(5, 25)])
        # Replica 4 is overloaded relative to its rack-mate 5: the spill
        # must stay inside rack 2 (replica 5), not scatter fleet-wide.
        loads = [0, 0, 0, 0, 9, 2]
        assert hier.route(query, 0, caches, loads, 1.0) == 5
        assert hier.decision_stats.get("rack_spilled", 0) == 1

    def test_cold_requests_fall_back_globally(self):
        hier = HierarchicalRouter(rack_size=2)
        caches = [fresh_cache() for _ in range(6)]
        loads = [5, 5, 5, 5, 0, 5]
        assert hier.route(toks(40, 26), 0, caches, loads, 1.0) == 4
        assert hier.decision_stats.get("cold", 0) == 1

    def test_rack_of_and_validation(self):
        hier = HierarchicalRouter(rack_size=4)
        assert [hier.rack_of(i) for i in (0, 3, 4, 11)] == [0, 0, 1, 2]
        with pytest.raises(ValueError):
            HierarchicalRouter(rack_size=0)
        with pytest.raises(ValueError):
            HierarchicalRouter(rack_max_imbalance=-1)

    def test_reset_clears_rack_rotation(self):
        hier = HierarchicalRouter(rack_size=2, rack_max_imbalance=0)
        caches = [fresh_cache() for _ in range(4)]
        full = self._warm(caches, 0, 27)
        query = np.concatenate([full, toks(5, 28)])
        hier.route(query, 0, caches, [9, 0, 0, 0], 1.0)
        assert hier._rack_rotation == 1
        hier.reset()
        assert hier._rack_rotation == 0
