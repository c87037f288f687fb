"""The directory's cut, held by tests.

``cluster/directory.py`` is a :class:`PrefixIndex`, one
:class:`ReplicaFront` and the inline :class:`PrefixDirectory`;
``cluster/sharded_directory.py`` is the same front over a ring of indexes.
The first suite parses the sources and fails when the sharded class reaches
behind an index's listed surface, when the lifecycle is written a second
time, or when the kernel goes back to probing for the backend.  The second
pins what the counters promise.  The third drives truncations — the event
whose own index operation was deleted in favour of a clear along the leaf's
old path — against the oracle and 1 / 2 / 8-shard directories, checking
after every event against the replica trees themselves.  The fourth replays
the same streams on a directory whose inline ingest applies a past-region
op on its ring owner alone, beside one that offers every op to every shard
(the loop it replaced), comparing shard by shard after every event.
"""

import ast
import inspect
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PrefixDirectory, ShardedPrefixDirectory, probe_hit_tokens
from repro.cluster import directory as directory_module
from repro.cluster import sharded_directory as sharded_module
from repro.core.cache import MarconiCache
from repro.core.radix_tree import TreeObserver
from repro.engine import kernel as kernel_module
from repro.models.memory import node_state_bytes
from repro.models.presets import hybrid_7b, transformer_7b

HYBRID = hybrid_7b()
TRANSFORMER = transformer_7b()
LIFECYCLE = ("attach", "detach", "tracked", "replicas", "close")


# ----------------------------------------------------------------------
# The boundary, read from the sources
# ----------------------------------------------------------------------
def reaches_behind_the_index(source: str) -> list[str]:
    """Every ``<anything but self>._x`` access and every
    ``PrefixDirectory(...)`` call: a shard's store is a ``PrefixIndex``
    driven through the surface its docstring lists."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and getattr(node.value, "id", None) != "self"
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "PrefixDirectory":
            found.append(f"line {node.lineno}: builds a PrefixDirectory")
    return found


def kernel_probes_for_directory(source: str) -> list[str]:
    """Every ``getattr`` / ``hasattr`` naming the directory or its transport."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("getattr", "hasattr")
            and any(
                word in ast.unparse(arg)
                for arg in node.args
                for word in ("directory", "connect_transport")
            )
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def definitions(*sources: str) -> list[str]:
    return [
        node.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
    ]


class TestDirectoryBoundary:
    def test_sharded_directory_stays_on_the_index_surface(self):
        assert reaches_behind_the_index(inspect.getsource(sharded_module)) == []

    def test_kernel_asks_the_router_not_getattr(self):
        assert kernel_probes_for_directory(inspect.getsource(kernel_module)) == []

    def test_lifecycle_is_written_once_and_truncation_has_no_op_of_its_own(self):
        names = definitions(
            inspect.getsource(directory_module), inspect.getsource(sharded_module)
        )
        for name in LIFECYCLE:
            assert names.count(name) == 1, f"def {name} x{names.count(name)}"
        assert "_truncate" not in names
        for module in (directory_module, sharded_module):
            assert not hasattr(module, "_TRUNCATE")

    def test_the_checks_catch_what_this_boundary_replaced(self):
        """The reach-arounds the two files carried before the cut, verbatim."""
        old_sharded = (
            "self.directory = PrefixDirectory()\n"
            "d._clear_replica(r)\n"
            "d.stats.resyncs += 1\n"
            "d._mark(r, path, data, depth, ckpt=has_ckpt)\n"
            "d._apply_path_op(kind, r, tokens, data, depth)\n"
            "self._tracked.add(replica)\n"
        )
        assert len(reaches_behind_the_index(old_sharded)) == 4
        old_kernel = (
            "directory = getattr(self.router, 'directory', None)\n"
            "connect = getattr(directory, 'connect_transport', None)\n"
            "tree = getattr(cache, 'tree', None)\n"
        )
        assert len(kernel_probes_for_directory(old_kernel)) == 2


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def tiny(n, seed, vocab=4):
    return np.random.default_rng(seed).integers(0, vocab, size=n, dtype=np.int32)


def serve(cache, seq, now):
    with cache.begin(seq, now) as session:
        session.commit(np.concatenate([seq, tiny(4, 991)]), now + 0.5)


class TestCounters:
    @pytest.mark.parametrize(
        "make", [PrefixDirectory, lambda: ShardedPrefixDirectory(n_shards=2)]
    )
    def test_every_front_counter_counts_on_every_backend(self, make):
        directory = make()
        cache = MarconiCache(HYBRID, int(1e12), alpha=0.0)
        directory.attach(0, cache)  # a resync
        directory.attach(1, object())  # untracked
        serve(cache, tiny(12, 1), 0.0)  # events
        directory.lookup(tiny(12, 1))
        directory.detach(0)  # an invalidation
        counted = asdict(directory.stats)
        assert counted.keys() == {f.name for f in fields(directory_module.DirectoryStats)}
        assert all(value > 0 for value in counted.values()), counted
        assert counted.items() <= directory.staleness().items()

    def test_staleness_only_reads(self):
        sharded = ShardedPrefixDirectory(
            n_shards=3, region_tokens=4, propagation_delay=1.0, gossip_interval=0.5
        )
        cache = MarconiCache(HYBRID, int(1e12), alpha=0.0)
        sharded.attach(0, cache)
        serve(cache, tiny(12, 1), 0.0)
        sharded.pump(upto=1.0)
        serve(cache, tiny(12, 2), 1.0)  # left pending
        before = [asdict(shard.directory.stats) for shard in sharded.shards]
        first = sharded.staleness()
        assert first == sharded.staleness()
        assert before == [asdict(shard.directory.stats) for shard in sharded.shards]
        for entry, shard in zip(first["per_shard"], sharded.shards):
            assert entry["applied_updates"] == shard.applied > 0
            assert entry["pending_updates"] == len(shard.pending) > 0


# ----------------------------------------------------------------------
# Truncation is a clear along the leaf's old path
# ----------------------------------------------------------------------
class _TruncationCounter(TreeObserver):
    def __init__(self):
        self.count = 0

    def on_leaf_truncated(self, node, dropped):
        self.count += 1


def held_content(index):
    """``replica -> (every root path it covers to its end, every path it
    checkpoints)`` — what an index says, whatever its node boundaries."""
    covered: dict[int, set[bytes]] = {}
    ckpts: dict[int, set[bytes]] = {}
    stack = [(node, b"") for node in index.root.children.values()]
    while stack:
        node, head = stack.pop()
        for replica, c in node.cover.items():
            covered.setdefault(replica, set()).add(head + node.data[: 4 * c])
        for replica in node.ckpt:
            ckpts.setdefault(replica, set()).add(head + node.data)
        stack.extend((child, head + node.data) for child in node.children.values())
    # Node boundaries differ between an index grown event by event and one
    # rebuilt from the trees: keep only the paths no other path extends.
    maximal = {
        replica: {p for p in paths if not any(q != p and q.startswith(p) for q in paths)}
        for replica, paths in covered.items()
    }
    return maximal, ckpts


@st.composite
def truncation_streams(draw):
    vocab = draw(st.integers(2, 6))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["begin", "begin", "commit", "abort", "truncate"]),
                st.integers(0, 7),  # replica / open-session pick
                st.integers(1, 24),  # sequence length
                st.integers(0, 40),  # token seed
            ),
            min_size=4,
            max_size=24,
        )
    )
    return vocab, ops, draw(st.integers(2, 5)), draw(st.sampled_from([HYBRID, TRANSFORMER]))


def drive(stream, backends, after_event=lambda: None):
    """Replay ``stream`` on two tight replicas observed by every backend,
    checking all of them (and ``after_event()``) after every event; returns
    the truncation count."""
    vocab, ops, n_states, model = stream
    capacity = n_states * node_state_bytes(model, 16, True)
    caches = [MarconiCache(model, capacity, alpha=1.0) for _ in range(2)]
    counter = _TruncationCounter()
    for replica, cache in enumerate(caches):
        cache.add_tree_observer(counter)
        for backend in backends:
            backend.attach(replica, cache)
    oracle = backends[0]
    queries = [tiny(n, seed, vocab) for n, seed in ((3, 0), (9, 1), (17, 2), (26, 3))]
    cap = [len(query) - 1 for query in queries]

    def check():
        rebuilt = PrefixDirectory()
        for replica, cache in enumerate(caches):
            rebuilt.attach(replica, cache)
        assert held_content(oracle.index) == held_content(rebuilt.index)
        rebuilt.close()
        for backend in backends:
            backend.check_integrity()
            for query, limit in zip(queries, cap):
                got = backend.lookup(query, limit=limit)
                want = oracle.lookup(query, limit=limit)
                assert (got.kv_matched, got.ckpt_depths) == (want.kv_matched, want.ckpt_depths)
                for replica, cache in enumerate(caches):
                    if model.has_recurrent_layers:
                        hit = got.ckpt_depth.get(replica, 0)
                    else:
                        hit = min(got.kv_matched.get(replica, 0), limit)
                    assert hit == probe_hit_tokens(cache, query)
        after_event()

    open_sessions = []
    now = 0.0
    for action, pick, length, seed in ops:
        now += 1.0
        cache = caches[pick % 2]
        if action == "begin":
            seq = tiny(length, seed, vocab)
            queries.append(seq)
            cap.append(len(seq) - 1)
            open_sessions.append((cache.begin(seq, now), seq, seed))
        elif action == "truncate":
            leaves = [
                node
                for node in cache.tree.iter_nodes()
                if node.is_leaf and node.kv_tokens > 1 and not node.has_ssm_state
            ]
            if leaves:
                leaf = leaves[seed % len(leaves)]
                cache.tree.truncate_leaf(leaf, 1 + length % (leaf.kv_tokens - 1))
        elif open_sessions:
            session, seq, seq_seed = open_sessions.pop(pick % len(open_sessions))
            if action == "abort":
                session.abort()
            else:
                session.commit(np.concatenate([seq, tiny(4, seq_seed + 7, vocab)]), now)
        check()
    for session, _, _ in open_sessions:
        session.abort()
        check()
    return counter.count


def random_ops(seed, actions, n, min_length):
    rng = np.random.default_rng(seed)
    return [
        (
            actions[int(rng.integers(len(actions)))],
            int(rng.integers(8)),
            int(rng.integers(min_length, 25)),
            int(rng.integers(40)),
        )
        for _ in range(n)
    ]


def backends():
    return [PrefixDirectory()] + [
        ShardedPrefixDirectory(n_shards=n, region_tokens=4) for n in (1, 2, 8)
    ]


class TestTruncationIsAClear:
    @settings(max_examples=60, deadline=None)
    @given(truncation_streams())
    def test_every_backend_tracks_the_trees_through_truncations(self, stream):
        drive(stream, backends())

    def test_the_streams_do_truncate_under_pressure_and_by_hand(self):
        """A fixed stream, so the property above is known to meet both the
        cache's own partial admissions and bare ``truncate_leaf`` calls."""
        ops = random_ops(5, ["begin", "begin", "commit", "abort"], 60, min_length=8)
        under_pressure = drive((3, ops, 2, TRANSFORMER), backends())
        assert under_pressure > 0
        by_hand = [("begin", 0, 20, 1), ("commit", 0, 1, 1), ("truncate", 0, 7, 0)]
        assert drive((3, by_hand, 5, TRANSFORMER), backends()) == 1

    def test_one_shard_index_is_the_oracle_index_node_for_node(self):
        oracle, one_shard = PrefixDirectory(), ShardedPrefixDirectory(n_shards=1)
        ops = random_ops(9, ["begin", "commit", "truncate", "abort"], 80, min_length=4)
        assert drive((4, ops, 3, HYBRID), [oracle, one_shard]) > 0
        assert nodes(one_shard.shards[0].directory) == nodes(oracle.index)
        assert asdict(one_shard.shards[0].directory.stats) == asdict(oracle.index.stats)


def nodes(index):
    return sorted(
        (node.end, node.data, sorted(node.cover.items()), sorted(node.ckpt))
        for node in index.iter_nodes()
    )


# ----------------------------------------------------------------------
# Inline ingest applies a past-region op on its owner alone
# ----------------------------------------------------------------------
class _AppliesOnAll(ShardedPrefixDirectory):
    """Inline ingest as it was before PR 24: every live shard is offered
    every update, and a non-owner drops what it does not store."""

    def _ingest(self, update):
        self.stats.events += 1
        owner = self._ring.lookup(update.rkey)
        for shard in self.shards:
            if shard.alive:
                self._apply(shard, update, owner)
                shard.applied += 1


class TestOwnerOnlyIngest:
    def pairs(self, region):
        return [
            (
                ShardedPrefixDirectory(n_shards=n, region_tokens=region),
                _AppliesOnAll(n_shards=n, region_tokens=region),
            )
            for n in (2, 8)
        ]

    def drive(self, stream, region):
        pairs = self.pairs(region)
        applied_by = []

        def same_shard_for_shard():
            for owner_only, on_all in pairs:
                for a, b in zip(owner_only.shards, on_all.shards):
                    assert nodes(a.directory) == nodes(b.directory)
                    assert a.applied == b.applied
                assert owner_only.staleness() == on_all.staleness()

        original = ShardedPrefixDirectory._apply

        def counting(self, shard, update, owner):
            applied_by.append(type(self))
            return original(self, shard, update, owner)

        ShardedPrefixDirectory._apply = counting
        try:
            drive(
                stream,
                [PrefixDirectory()] + [d for pair in pairs for d in pair],
                after_event=same_shard_for_shard,
            )
        finally:
            ShardedPrefixDirectory._apply = original
        return (
            applied_by.count(ShardedPrefixDirectory),
            applied_by.count(_AppliesOnAll),
        )

    @pytest.mark.parametrize("region", [4, 32])
    @settings(max_examples=40, deadline=None)
    @given(stream=truncation_streams())
    def test_every_shard_equals_the_one_apply_on_all_builds(self, region, stream):
        self.drive(stream, region)

    def test_the_streams_do_reach_past_the_region(self):
        """A fixed stream: at ``region_tokens=4`` many ops start past the
        region and skip the non-owners (attach-time resyncs and shallow ops
        still go everywhere); at 32 none does (no sequence is that long)
        and the two directories do the same work."""
        ops = random_ops(11, ["begin", "begin", "commit", "abort", "truncate"], 60, 8)
        owner_only, on_all = self.drive((4, ops, 3, HYBRID), region=4)
        assert owner_only < 0.75 * on_all
        owner_only, on_all = self.drive((4, ops, 3, HYBRID), region=32)
        assert owner_only == on_all > 0
