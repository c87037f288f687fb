"""The directory's contract, held by tests.

``cluster/directory.py`` is a :class:`PrefixIndex`, one
:class:`ReplicaFront` and the inline :class:`PrefixDirectory`;
``cluster/sharded_directory.py`` is the same front over a ring of indexes
(``tests/test_source_boundaries.py`` holds the cut between them).  The first
suite pins what the counters promise.  The second drives truncations — the
event whose own index operation was deleted in favour of a clear along the
leaf's old path — against the oracle and 1 / 2 / 8-shard directories,
checking after every event against the replica trees themselves.  The
third replays the same streams on directories whose inline ops resume at
the replica node's own directory node, beside ones whose every op carries
its path, comparing every index node for node in dict order after every
event, and drives each fallback (a dropped deep half, a resync, a lost
shard, queued gossip) by hand.
"""

from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PrefixDirectory, ShardedPrefixDirectory, probe_hit_tokens
from repro.cluster import directory as directory_module
from repro.cluster.directory import PrefixIndex, _ReplicaView
from repro.core.cache import MarconiCache
from repro.core.radix_tree import TreeObserver
from repro.models.memory import node_state_bytes
from repro.models.presets import hybrid_7b, transformer_7b

HYBRID = hybrid_7b()
TRANSFORMER = transformer_7b()


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
# Inline ops resume at the replica node's own directory node
# ----------------------------------------------------------------------
class _Counted:
    """Counts the ops a directory applied carrying their path and the ops
    it resumed; otherwise the class it is mixed into, unchanged."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ops = Counter()

    def _ingest_path_op(self, *op):
        self.ops["path"] += 1
        return super()._ingest_path_op(*op)

    def _ingest_resumed(self, *op):
        held = super()._ingest_resumed(*op)
        self.ops["resumed"] += held is not None
        return held


class _Oracle(_Counted, PrefixDirectory):
    pass


class _Sharded(_Counted, ShardedPrefixDirectory):
    pass


class _PathOracle(PrefixDirectory):
    """The oracle as it was before ops resumed: its ingest records no
    entry, so every op carries its path and walks from the root."""

    def _ingest_path_op(self, *op):
        super()._ingest_path_op(*op)


class _PathSharded(ShardedPrefixDirectory):
    """The sharded directory as it was before ops resumed."""

    def _ingest_path_op(self, *op):
        super()._ingest_path_op(*op)


def resume_pairs(region, shards=(1, 2, 8), oracle=True, **gossip):
    """``(resuming, path-carrying)`` pairs: the oracle, and each shard count
    at ``region`` tokens."""
    pairs = [(_Oracle(), _PathOracle())] if oracle else []
    for n in shards:
        kwargs = dict(n_shards=n, region_tokens=region, **gossip)
        pairs.append((_Sharded(**kwargs), _PathSharded(**kwargs)))
    return pairs


def in_dict_order(index):
    """Every node in child-dict order, its cover and checkpoint entries in
    iteration order: ``lookup`` iterates both, and routing reads that order."""
    out, stack = [], [index.root]
    while stack:
        node = stack.pop()
        out.append((node.end, node.data, list(node.cover.items()), list(node.ckpt)))
        stack.extend(node.children.values())
    return out


def indexes(front):
    if isinstance(front, PrefixDirectory):
        return [front.index]
    return [shard.directory for shard in front.shards]


def assert_same(pairs):
    for resuming, path in pairs:
        resuming.check_integrity()
        for a, b in zip(indexes(resuming), indexes(path), strict=True):
            assert in_dict_order(a) == in_dict_order(b)
            assert asdict(a.stats) == asdict(b.stats)
        if isinstance(resuming, ShardedPrefixDirectory):
            assert [s.applied for s in resuming.shards] == [s.applied for s in path.shards]
        # ``drive`` asks its oracle once per backend it checks.
        got, want = resuming.staleness(), path.staleness()
        assert got.pop("lookups") >= want.pop("lookups")
        assert got == want


@contextmanager
def watching_resumable_ops():
    """Count the ops that may resume — inline, past the region, with an
    attached entry, decided here from the view's own state — and every
    root-path join and walk from the index root made while one applies."""
    seen = Counter()
    resumable = [False]
    originals = {
        (_ReplicaView, "_send"): _ReplicaView._send,
        (_ReplicaView, "_root_path"): _ReplicaView._root_path,
        (PrefixIndex, "_walk"): PrefixIndex._walk,
        (PrefixIndex, "mark"): PrefixIndex.mark,
    }

    def send(view, kind, depth, anchor, source, *rest, **kwargs):
        entry = view.held.get(source.node_id)
        front = view.front  # the oracle has no region: every op is past it
        past = not isinstance(front, ShardedPrefixDirectory) or front._past_region(kind, depth)
        resumable[0] = past and entry is not None and entry[1].parent is not None
        if isinstance(front, _Counted):
            seen["past the region"] += past
        seen["resumable" if resumable[0] else "carried"] += 1
        try:
            return originals[_ReplicaView, "_send"](
                view, kind, depth, anchor, source, *rest, **kwargs
            )
        finally:
            resumable[0] = False

    def flag(key, name, from_root):
        def flagged(*args, **kwargs):
            if resumable[0] and from_root(*args, **kwargs):
                seen[name] += 1
            return originals[key](*args, **kwargs)

        return flagged

    patched = {
        (_ReplicaView, "_send"): send,
        (_ReplicaView, "_root_path"): flag(
            (_ReplicaView, "_root_path"), "path joins", lambda *a, **k: True
        ),
        (PrefixIndex, "_walk"): flag((PrefixIndex, "_walk"), "root walks", lambda *a, **k: True),
        (PrefixIndex, "mark"): flag(
            (PrefixIndex, "mark"),
            "root walks",
            lambda index, replica, tokens, data, upto, ckpt=False, start=None: start is None,
        ),
    }
    for (owner, name), fn in patched.items():
        setattr(owner, name, fn)
    try:
        yield seen
    finally:
        for (owner, name), fn in originals.items():
            setattr(owner, name, fn)


def path_of(n, first):
    """``n`` distinct tokens starting at ``first`` (no accidental sharing)."""
    return np.arange(first, first + n, dtype=np.int32)


class TestInlineOpsResume:
    @staticmethod
    def drive(stream, region):
        pairs = resume_pairs(region)
        # The first backend is the oracle ``drive`` checks the trees against.
        drive(stream, [d for pair in pairs for d in pair], after_event=lambda: assert_same(pairs))
        return pairs

    @pytest.mark.parametrize("region", [4, 32])
    @settings(max_examples=40, deadline=None)
    @given(stream=truncation_streams())
    def test_every_index_equals_the_one_path_ops_build(self, region, stream):
        self.drive(stream, region)

    def test_the_streams_resume_without_a_path_join_or_a_root_walk(self):
        """A fixed stream: most ops past the region resume (the rest are a
        node's first op, or follow a dropped entry), and none that may
        touches a root path or walks from the index root.  The oracle has no
        region.  At ``region_tokens=32`` no sharded op is past the region
        (no sequence is that long)."""
        ops = random_ops(11, ["begin", "begin", "commit", "abort", "truncate"], 60, 8)
        with watching_resumable_ops() as seen:
            pairs = self.drive((4, ops, 3, HYBRID), region=4)
        assert seen["path joins"] == seen["root walks"] == 0, seen
        resumed = [resuming.ops["resumed"] for resuming, _ in pairs]
        assert seen["resumable"] == sum(resumed)
        assert sum(resumed) > 0.85 * seen["past the region"], (resumed, seen)
        oracle = pairs[0][0].ops
        assert oracle["resumed"] > 0.7 * (oracle["resumed"] + oracle["path"]), oracle
        pairs = self.drive((4, ops, 3, HYBRID), region=32)
        assert pairs[0][0].ops["resumed"] > 0
        assert all(resuming.ops["resumed"] == 0 for resuming, _ in pairs[1:])

    @staticmethod
    def attach(pairs, caches):
        for replica, cache in enumerate(caches):
            for pair in pairs:
                for directory in pair:
                    directory.attach(replica, cache)

    @staticmethod
    def counts(pairs):
        return [dict(resuming.ops) for resuming, _ in pairs]

    def step(self, pairs, event, want):
        """Run one tree event; every resuming directory must have applied it
        the way ``want`` names ("path" or "resumed"), and every pair agree."""
        before = self.counts(pairs)
        event()
        for was, now in zip(before, self.counts(pairs)):
            assert now.get(want, 0) == was.get(want, 0) + 1, (want, was, now)
        assert_same(pairs)

    def test_an_entry_whose_deep_half_a_split_dropped_carries_its_path(self):
        pairs = resume_pairs(4)
        a, b = caches = [MarconiCache(TRANSFORMER, int(1e12), alpha=0.0) for _ in range(2)]
        self.attach(pairs, caches)
        seq = path_of(20, 100)
        leaf_b = b.tree.insert(seq, 0.0).end_node
        assert_same(pairs)
        leaf_a = a.tree.insert(seq[:10], 0.0).end_node  # ends mid-edge of b's node
        assert_same(pairs)
        self.step(pairs, lambda: b.tree.truncate_leaf(leaf_b, 12), "resumed")
        # A checkpoint at 12 splits the edge there; nothing covers past it,
        # so the split drops the deep half a's entry points at.
        self.step(pairs, lambda: b.tree.set_checkpoint(leaf_b), "resumed")
        self.step(pairs, lambda: a.tree.set_checkpoint(leaf_a), "path")
        # The fallback recorded a live entry again.
        self.step(pairs, lambda: a.tree.insert(np.append(seq[:10], 7), 1.0), "resumed")

    def test_an_entry_below_a_later_split_climbs_to_the_depth_it_wants(self):
        pairs = resume_pairs(4)
        a, b = caches = [MarconiCache(TRANSFORMER, int(1e12), alpha=0.0) for _ in range(2)]
        self.attach(pairs, caches)
        seq = path_of(20, 100)
        a.tree.insert(seq, 0.0)  # a's entry: one directory node, depth 0..20
        assert_same(pairs)
        b.tree.insert(np.append(seq[:10], 7), 0.0)  # splits that node at 10
        assert_same(pairs)
        # a splits its own node at 5 (the middle inherits the entry, now
        # below the directory's split) and hangs a leaf there.
        self.step(pairs, lambda: a.tree.insert(np.append(seq[:5], 7), 1.0), "resumed")

    def first_op_carries_its_path(self, pairs, cache, seq):
        """After the entries were dropped: a leaf hung under ``seq``'s node
        carries its path, then recorded an entry its next op resumes at."""
        child = []
        self.step(pairs, lambda: child.append(cache.tree.insert(np.append(seq, 7), 1.0)), "path")
        self.step(pairs, lambda: cache.tree.set_checkpoint(child[0].end_node), "resumed")

    def test_a_resync_drops_every_entry(self):
        pairs = resume_pairs(4)
        a, b = caches = [MarconiCache(TRANSFORMER, int(1e12), alpha=0.0) for _ in range(2)]
        self.attach(pairs, caches)
        seq = path_of(20, 100)
        leaf = a.tree.insert(seq, 0.0).end_node
        b.tree.insert(seq[:12], 0.0)
        self.step(pairs, lambda: a.tree.set_checkpoint(leaf), "resumed")
        for pair in pairs:  # a resync that keeps every node (its hook, as a swap calls it)
            for directory in pair:
                directory._views[0].on_tree_attached(a.tree)
        assert_same(pairs)
        self.first_op_carries_its_path(pairs, a, seq)
        a.reset()  # a new, empty tree
        assert_same(pairs)
        leaf = a.tree.insert(seq, 2.0).end_node
        assert_same(pairs)
        self.step(pairs, lambda: a.tree.truncate_leaf(leaf, 9), "resumed")

    def test_a_lost_shard_drops_every_entry(self):
        pairs = resume_pairs(4, shards=(2, 8), oracle=False)
        a, b = caches = [MarconiCache(TRANSFORMER, int(1e12), alpha=0.0) for _ in range(2)]
        self.attach(pairs, caches)
        seq = path_of(20, 100)
        leaf = a.tree.insert(seq, 0.0).end_node
        b.tree.insert(seq[:12], 0.0)
        self.step(pairs, lambda: a.tree.set_checkpoint(leaf), "resumed")
        for resuming, path in pairs:
            owner = resuming.shard_for(seq)
            resuming.fail_shard(owner)
            path.fail_shard(owner)
        assert_same(pairs)
        self.first_op_carries_its_path(pairs, a, seq)

    def test_queued_gossip_never_uses_an_entry(self):
        pairs = resume_pairs(4, oracle=False, propagation_delay=1.0, gossip_interval=0.5)
        capacity = 3 * node_state_bytes(HYBRID, 16, True)
        caches = [MarconiCache(HYBRID, capacity, alpha=1.0) for _ in range(2)]
        self.attach(pairs, caches)
        for step, (_, pick, length, seed) in enumerate(random_ops(13, ["serve"], 40, 8)):
            serve(caches[pick % 2], tiny(length, seed, 4), float(step))
            for pair in pairs:
                for directory in pair:
                    directory.pump(upto=step + 0.5)
            assert_same(pairs)
        for resuming, _ in pairs:
            assert resuming.ops["path"] > 0 and resuming.ops["resumed"] == 0
            assert not any(view.held for view in resuming._views.values())
