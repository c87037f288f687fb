"""Tests for the router-side global prefix directory.

The directory's one promise is decision compatibility: for any sequence of
cache operations, a directory lookup must report exactly the per-replica
hits the legacy deep probe would compute by walking every replica tree.
The suites here check the maintenance protocol event by event, then hammer
the equivalence with randomized operation streams (hypothesis) including
eviction pressure, aborts, truncation, and resets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PrefixAffinityRouter, PrefixDirectory, probe_hit_tokens
from repro.core.cache import MarconiCache
from repro.core.tokens import TokenSeq
from repro.models.memory import node_state_bytes
from repro.models.presets import hybrid_7b, transformer_7b
from repro.tiering import TieredMarconiCache

HYBRID = hybrid_7b()
TRANSFORMER = transformer_7b()


def toks(n, seed):
    return np.random.default_rng(seed).integers(0, 32000, size=n, dtype=np.int32)


def serve(cache, seq, now, out=10, out_seed=991):
    """One full request: begin + commit with a random output suffix."""
    with cache.begin(seq, now) as session:
        full = np.concatenate([seq, toks(out, out_seed)])
        session.commit(full, now + 0.5)
    return full


def assert_parity(directory, caches, queries):
    """Directory lookups must equal deep probes for every tracked replica."""
    for query in queries:
        query = np.asarray(query, dtype=np.int32)
        lookup = directory.lookup(query, limit=len(query) - 1)
        cap = max(len(query) - 1, 0)
        for index, cache in enumerate(caches):
            expected = probe_hit_tokens(cache, query)
            if cache.model.has_recurrent_layers:
                got = lookup.ckpt_depth.get(index, 0)
            else:
                got = min(lookup.kv_matched.get(index, 0), cap)
            assert got == expected, (
                f"replica {index}: directory {got} != deep probe {expected} "
                f"for query of {len(query)} tokens"
            )


class TestDirectoryMaintenance:
    def test_attach_tracks_tree_caches(self):
        directory = PrefixDirectory()
        cache = MarconiCache(HYBRID, int(1e12), alpha=0.0)
        assert directory.attach(0, cache)
        assert directory.tracked(0)
        assert directory.replicas == (0,)

    def test_attach_rejects_opaque_and_probe_caches(self):
        directory = PrefixDirectory()

        class Opaque:
            pass

        class WithProbe:
            tree = None

            def probe(self, tokens):
                return 7

        assert not directory.attach(0, Opaque())
        assert not directory.attach(1, WithProbe())
        assert directory.stats.untracked_replicas == 2

    def test_admission_is_indexed_incrementally(self):
        directory = PrefixDirectory()
        cache = MarconiCache(HYBRID, int(1e12), alpha=0.0)
        directory.attach(0, cache)
        seq = toks(300, 1)
        full = serve(cache, seq, 0.0)
        resyncs_before = directory.stats.resyncs
        query = np.concatenate([full, toks(20, 2)])
        assert_parity(directory, [cache], [query, seq, toks(50, 3)])
        assert directory.stats.resyncs == resyncs_before  # no rescans

    def test_attach_after_content_resyncs(self):
        cache = MarconiCache(HYBRID, int(1e12), alpha=0.0)
        seq = toks(280, 4)
        full = serve(cache, seq, 0.0)
        directory = PrefixDirectory()
        directory.attach(0, cache)
        assert directory.stats.resyncs >= 1
        assert_parity(directory, [cache], [np.concatenate([full, toks(9, 5)])])

    def test_reset_invalidates_via_reattach(self):
        directory = PrefixDirectory()
        cache = MarconiCache(HYBRID, int(1e12), alpha=0.0)
        directory.attach(0, cache)
        full = serve(cache, toks(200, 6), 0.0)
        query = np.concatenate([full, toks(5, 7)])
        assert directory.lookup(query, limit=len(query) - 1).ckpt_depth
        cache.reset()
        lookup = directory.lookup(query, limit=len(query) - 1)
        assert not lookup.ckpt_depth and not lookup.kv_matched
        # ...and the directory keeps following the *new* tree.
        full2 = serve(cache, toks(180, 8), 1.0)
        assert_parity(directory, [cache], [np.concatenate([full2, toks(5, 9)])])

    def test_eviction_under_pressure_stays_consistent(self):
        per_seq = node_state_bytes(HYBRID, 2000, True)
        cache = MarconiCache(HYBRID, 3 * per_seq, alpha=1.0)
        directory = PrefixDirectory()
        directory.attach(0, cache)
        fulls = []
        for i in range(12):
            n = 1800 if i % 2 == 0 else 60
            fulls.append(serve(cache, toks(n, 100 + i), float(i), out_seed=200 + i))
        directory.check_integrity()
        queries = [np.concatenate([full, toks(7, 400)]) for full in fulls]
        assert_parity(directory, [cache], queries)

    def test_abort_rollback_stays_consistent(self):
        cache = MarconiCache(HYBRID, int(1e12), alpha=0.0)
        directory = PrefixDirectory()
        directory.attach(0, cache)
        base = toks(150, 20)
        serve(cache, base, 0.0)
        # Aborted session rolls back its speculative insert; the directory
        # must shed the aborted branch too.
        branch = np.concatenate([base[:100], toks(80, 21)])
        session = cache.begin(branch, 1.0)
        session.abort()
        directory.check_integrity()
        assert_parity(
            directory,
            [cache],
            [np.concatenate([branch, toks(5, 22)]), np.concatenate([base, toks(5, 23)])],
        )

    def test_truncation_clear_descend(self):
        """A leaf truncated under pressure loses exactly its tail in the
        directory, even though the dropped tokens are no longer known."""
        cache = MarconiCache(TRANSFORMER, int(1e12), alpha=0.0)
        directory = PrefixDirectory()
        directory.attach(0, cache)
        seq = toks(400, 30)
        full = serve(cache, seq, 0.0)
        leaf = max(cache.tree.iter_nodes(), key=lambda n: n.seq_len)
        assert leaf.is_leaf
        cache.tree.truncate_leaf(leaf, leaf.kv_tokens // 2)
        directory.check_integrity()
        assert_parity(directory, [cache], [np.concatenate([full, toks(5, 31)])])

    def test_truncation_cut_mid_directory_edge(self):
        """The directory can be more split than the truncated replica's
        leaf (another replica's divergence splits the union edge): the
        clear-descend must still remove the deeper coverage chain when
        the cut lands mid-directory-edge."""
        caches = [MarconiCache(TRANSFORMER, int(1e12), alpha=0.0) for _ in range(2)]
        directory = PrefixDirectory()
        for i, cache in enumerate(caches):
            directory.attach(i, cache)
        base = np.arange(12, dtype=np.int32)
        caches[0].tree.insert(base, 0.0)  # replica 0: one 12-token leaf
        diverged = np.concatenate([base[:8], [50, 51, 52]]).astype(np.int32)
        caches[1].tree.insert(diverged, 1.0)  # splits the union edge at 8
        leaf = max(
            (n for n in caches[0].tree.iter_nodes() if n.is_leaf),
            key=lambda n: n.seq_len,
        )
        caches[0].tree.truncate_leaf(leaf, 6)  # cut strictly inside [0, 8)
        directory.check_integrity()
        query = np.concatenate([base, [77, 78]]).astype(np.int32)
        assert_parity(directory, caches, [query])

    def test_transformer_mid_edge_matches(self):
        cache = MarconiCache(TRANSFORMER, int(1e12), alpha=0.0)
        directory = PrefixDirectory()
        directory.attach(0, cache)
        seq = toks(300, 40)
        serve(cache, seq, 0.0)
        # Query diverging mid-edge: raw match length, not node-aligned.
        query = np.concatenate([seq[:137], toks(60, 41)])
        assert_parity(directory, [cache], [query])

    def test_detach_invalidates_replica(self):
        directory = PrefixDirectory()
        caches = [MarconiCache(HYBRID, int(1e12), alpha=0.0) for _ in range(2)]
        for i, cache in enumerate(caches):
            directory.attach(i, cache)
        full = serve(caches[1], toks(220, 50), 0.0)
        query = np.concatenate([full, toks(5, 51)])
        assert directory.lookup(query, limit=len(query) - 1).ckpt_depth == {1: len(full)}
        directory.detach(1)
        assert not directory.lookup(query, limit=len(query) - 1).ckpt_depth
        assert directory.stats.invalidations == 1
        assert directory.replicas == (0,)

    def test_pruning_keeps_index_compact(self):
        per_seq = node_state_bytes(HYBRID, 500, True)
        cache = MarconiCache(HYBRID, 2 * per_seq, alpha=1.0)
        directory = PrefixDirectory()
        directory.attach(0, cache)
        for i in range(20):
            serve(cache, toks(450, 60 + i), float(i), out_seed=900 + i)
        directory.check_integrity()
        assert directory.index.stats.pruned_nodes > 0
        # The directory holds at most what the tree holds (plus boundary
        # splits from checkpoint marks).
        n_dir = sum(1 for _ in directory.index.iter_nodes())
        assert n_dir <= 3 * cache.tree.n_nodes + 5
        assert directory.index.stats.n_nodes == n_dir

    def test_staleness_snapshot_shape(self):
        directory = PrefixDirectory()
        cache = MarconiCache(HYBRID, int(1e12), alpha=0.0)
        directory.attach(0, cache)
        serve(cache, toks(100, 70), 0.0)
        snap = directory.staleness()
        for key in ("events", "resyncs", "pruned_nodes", "n_nodes", "lookups"):
            assert key in snap


class TestDirectoryMultiReplica:
    def test_union_tree_separates_replicas(self):
        directory = PrefixDirectory()
        caches = [MarconiCache(HYBRID, int(1e12), alpha=0.0) for _ in range(3)]
        for i, cache in enumerate(caches):
            directory.attach(i, cache)
        base = toks(200, 80)
        full0 = serve(caches[0], base, 0.0, out_seed=81)
        full2 = serve(caches[2], np.concatenate([base, toks(50, 82)]), 0.0, out_seed=83)
        queries = [
            np.concatenate([full0, toks(5, 84)]),
            np.concatenate([full2, toks(5, 85)]),
            np.concatenate([base, toks(5, 86)]),
        ]
        assert_parity(directory, caches, queries)

    def test_mixed_model_fleet(self):
        """Hybrid and pure-Transformer replicas coexist in one directory."""
        directory = PrefixDirectory()
        caches = [
            MarconiCache(HYBRID, int(1e12), alpha=0.0),
            MarconiCache(TRANSFORMER, int(1e12), alpha=0.0),
        ]
        for i, cache in enumerate(caches):
            directory.attach(i, cache)
        seq = toks(250, 90)
        serve(caches[0], seq, 0.0)
        serve(caches[1], seq, 0.0)
        assert_parity(directory, caches, [np.concatenate([seq, toks(30, 91)])])


class TestByteEdges:
    """Directory edges are stored as bytes and walked by memcmp: the
    representation must own its buffers and survive every split."""

    def _two_replica_split(self):
        """Replica 0 holds one 12-token leaf; replica 1's divergence at
        depth 8 splits the union edge.  Returns the caller-side arrays too."""
        caches = [MarconiCache(TRANSFORMER, int(1e12), alpha=0.0) for _ in range(2)]
        directory = PrefixDirectory()
        for i, cache in enumerate(caches):
            directory.attach(i, cache)
        base = np.arange(100, 112, dtype=np.int32)
        diverged = np.concatenate([base[:8], [50, 51, 52]]).astype(np.int32)
        caches[0].tree.insert(base, 0.0)
        caches[1].tree.insert(diverged, 1.0)
        return directory, caches, base, diverged

    def test_split_halves_concatenate_to_the_original_edge(self):
        directory, _, base, diverged = self._two_replica_split()
        directory.check_integrity()
        (head,) = directory.index.root.children.values()
        assert head.data == base[:8].tobytes()
        tails = {child.data for child in head.children.values()}
        assert tails == {base[8:].tobytes(), diverged[8:].tobytes()}
        for tail in tails:
            assert head.data + tail in (base.tobytes(), diverged.tobytes())

    def test_edge_views_read_the_stored_bytes_and_alias_no_caller_array(self):
        directory, caches, base, diverged = self._two_replica_split()
        replica_edges = [n.edge_tokens for c in caches for n in c.tree.iter_nodes()]
        for node in directory.index.iter_nodes():
            assert isinstance(node.data, bytes)
            assert node.edge.dtype == np.int32 and not node.edge.flags.writeable
            assert node.edge.tobytes() == node.data
            assert node.end == node.parent.end + len(node.edge)
            for outside in [base, diverged, *replica_edges]:
                assert not np.shares_memory(node.edge, outside)
        # Mutating what the caller passed in cannot reach the index.
        want = directory.lookup(np.arange(100, 112, dtype=np.int32))
        base[:] = 0
        diverged[:] = 0
        assert directory.lookup(np.arange(100, 112, dtype=np.int32)) == want

    @pytest.mark.parametrize("attach_first", [True, False], ids=["events", "resync"])
    def test_replica_edges_that_are_not_contiguous_int32_are_canonicalized(
        self, attach_first
    ):
        """A tree fed int64 or strided arrays directly used to keep them as
        edges, and the bridge (and the resync walk) had to canonicalize per
        edge.  The tree now owns int32 bytes whatever it is fed, so both
        join ``node.data`` as is: the directory must index exactly that."""
        cache = MarconiCache(TRANSFORMER, int(1e12), alpha=0.0)
        directory = PrefixDirectory()
        if attach_first:
            directory.attach(0, cache)
        wide = np.arange(500, 520, dtype=np.int64)
        strided = np.arange(900, 940, dtype=np.int32)[::2]
        assert not strided.flags.c_contiguous
        cache.tree.insert(wide, 0.0)
        cache.tree.insert(strided, 1.0)
        cache.tree.insert(np.concatenate([wide[:12], [7, 8]]), 2.0)  # splits the int64 edge
        for node in cache.tree.iter_nodes():
            assert node.edge_tokens.dtype == np.int32
            assert node.edge_tokens.flags.c_contiguous
            assert node.edge_tokens.tobytes() == node.data
            assert not np.shares_memory(node.edge_tokens, strided)
        cache.tree.check_integrity()
        if not attach_first:
            directory.attach(0, cache)
        directory.check_integrity()
        for path in (wide, strided, np.concatenate([wide[:12], [7, 8]])):
            query = np.asarray(path, dtype=np.int32)
            assert directory.lookup(query).kv_matched == {0: len(query)}
        assert all(node.edge.dtype == np.int32 for node in directory.index.iter_nodes())
        assert {n.data for n in directory.index.iter_nodes()} == {
            n.data for n in cache.tree.iter_nodes()
        }

    @pytest.mark.parametrize("model", [HYBRID, TRANSFORMER], ids=["hybrid", "kv"])
    def test_lookup_is_the_same_for_every_spelling_of_a_query(self, model):
        """memcmp on a buffer that is not int32 would be a silent miss:
        handles, int32 arrays, int64 arrays, strided views and lists are
        canonicalized once and must walk identically."""
        cache = MarconiCache(model, int(1e12), alpha=0.0)
        directory = PrefixDirectory()
        directory.attach(0, cache)
        seq = toks(300, 40)
        full = serve(cache, seq, 0.0)
        serve(cache, np.concatenate([seq[:120], toks(40, 41)]), 1.0)
        queries = [
            np.concatenate([full, toks(7, 42)]),  # runs past a leaf
            full[:200],  # ends mid-edge
            np.concatenate([seq[:137], toks(20, 43)]),  # diverges mid-edge
            full[:120],  # ends on a node boundary
        ]
        for query in queries:
            want = directory.lookup(query, limit=len(query) - 1)
            assert want.kv_matched, "the query must actually match something"
            strided = np.repeat(query, 2)[::2]
            assert not strided.flags.c_contiguous
            for spelling in (
                TokenSeq(query),
                query.astype(np.int64),
                strided,
                query.tolist(),
            ):
                assert directory.lookup(spelling, limit=len(query) - 1) == want


@st.composite
def op_stream(draw):
    """A randomized multi-replica operation stream over a tiny vocab
    (maximizing shared prefixes, splits, and evictions)."""
    n_replicas = draw(st.integers(2, 3))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_replicas - 1),  # replica
                st.sampled_from(["serve", "abort", "reset"]),
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
    return n_replicas, ops, queries


def _tiny_vocab_seq(length, seed):
    return np.random.default_rng(seed).integers(0, 4, size=length, dtype=np.int32)


class TestDirectoryProperties:
    @settings(max_examples=40, deadline=None)
    @given(op_stream(), st.booleans())
    def test_randomized_parity_with_deep_probe(self, stream, tight):
        n_replicas, ops, queries = stream
        per_seq = node_state_bytes(HYBRID, 64, True)
        capacity = 3 * per_seq if tight else int(1e12)
        caches = [MarconiCache(HYBRID, capacity, alpha=1.0) for _ in range(n_replicas)]
        directory = PrefixDirectory()
        for i, cache in enumerate(caches):
            directory.attach(i, cache)
        now = 0.0
        for replica, action, length, vocab_seed in ops:
            now += 1.0
            cache = caches[replica]
            if action == "reset":
                cache.reset()
                continue
            seq = _tiny_vocab_seq(length, vocab_seed)
            session = cache.begin(seq, now)
            if action == "abort":
                session.abort()
            else:
                session.commit(
                    np.concatenate([seq, _tiny_vocab_seq(4, vocab_seed + 7)]),
                    now + 0.5,
                )
        directory.check_integrity()
        query_arrays = [_tiny_vocab_seq(n, s) for n, s in queries]
        assert_parity(directory, caches, query_arrays)

    @settings(max_examples=25, deadline=None)
    @given(op_stream())
    def test_router_decision_parity(self, stream):
        """PrefixAffinityRouter picks the same replica whether it reads a
        directory or deep-probes (these fleets are below the size at which
        it would read one unasked) for any cache state and query."""
        n_replicas, ops, queries = stream
        caches = [MarconiCache(HYBRID, int(1e12), alpha=0.0) for _ in range(n_replicas)]
        now = 0.0
        for replica, action, length, vocab_seed in ops:
            now += 1.0
            seq = _tiny_vocab_seq(length, vocab_seed)
            session = caches[replica].begin(seq, now)
            if action == "abort":
                session.abort()
            else:
                session.commit(
                    np.concatenate([seq, _tiny_vocab_seq(4, vocab_seed + 7)]),
                    now + 0.5,
                )
        deep = PrefixAffinityRouter()
        fast = PrefixAffinityRouter(directory_factory=PrefixDirectory)
        loads_cycle = [[i % 3 for i in range(n_replicas)], [0] * n_replicas]
        for qi, (n, s) in enumerate(queries):
            query = _tiny_vocab_seq(n, s)
            loads = loads_cycle[qi % 2]
            assert deep.route(query, qi, caches, loads, now) == fast.route(
                query, qi, caches, loads, now
            )
        assert deep.directory is None and fast.directory is not None


class TestRouterSatellites:
    def test_session_affinity_huge_ids(self):
        from repro.cluster import SessionAffinityRouter

        router = SessionAffinityRouter()
        caches = [object() for _ in range(4)]
        # Out-of-signed-64-bit ids must hash, not raise.
        big = router.route(toks(3, 1), 2**70 + 17, caches, [0] * 4, 0.0)
        assert 0 <= big < 4
        # In-range ids (including negative) keep their legacy placement:
        # the masked encoding equals the old signed two's complement.
        import zlib

        for sid in (0, 42, -1, -(2**63), 2**63 - 1):
            legacy = zlib.crc32(int(sid).to_bytes(8, "little", signed=True)) % 4
            assert router.route(toks(3, 1), sid, caches, [0] * 4, 0.0) == legacy

    def test_probe_fast_path_precoerced(self, hybrid):
        cache = MarconiCache(hybrid, int(1e12), alpha=0.0)
        seq = toks(100, 2)
        serve(cache, seq, 0.0)
        query = np.concatenate([seq, toks(10, 3)])
        assert probe_hit_tokens(cache, query) == probe_hit_tokens(cache, list(query))

    def test_router_takes_no_probe_selector(self):
        """The probe is not a constructor option: one rule picks it."""
        from repro.cluster import HierarchicalRouter

        for router in (PrefixAffinityRouter, HierarchicalRouter):
            with pytest.raises(TypeError):
                router(probe="deep")

    def test_directory_router_in_registry(self):
        from repro.cluster import DirectoryRouter, make_router
        from repro.cluster.router import ROUTER_NAMES

        assert "directory" in ROUTER_NAMES
        assert isinstance(make_router("directory"), DirectoryRouter)

    def test_router_reset_clears_directory(self):
        router = PrefixAffinityRouter(directory_factory=PrefixDirectory)
        caches = [MarconiCache(HYBRID, int(1e12), alpha=0.0) for _ in range(2)]
        serve(caches[0], toks(120, 4), 0.0)
        router.route(toks(120, 4), 0, caches, [0, 0], 1.0)
        assert router.directory is not None
        router.reset()
        assert router.directory is None
        # Observers were removed: mutating the cache must not touch a
        # stale directory.
        serve(caches[0], toks(80, 5), 2.0)

    def test_tiered_cache_is_tracked(self):
        directory = PrefixDirectory()
        cache = TieredMarconiCache(
            HYBRID, int(1e12), secondary_bytes=int(1e12), alpha=0.0
        )
        assert directory.attach(0, cache)
        full = serve(cache, toks(150, 6), 0.0)
        assert_parity(directory, [cache], [np.concatenate([full, toks(5, 7)])])
