"""Resume anchors: an anchored walk is the root walk, and anchors keep
nothing alive.

A session's rounds are prefix handles of one buffer, and the buffer keeps,
per index, the deepest node its last walk there fully matched or created
(``core/tokens.py``).  ``RadixTree.match`` / ``insert`` and
``PrefixIndex.lookup`` start a handle's walk at that node when it is still
attached and no deeper than the query.  The state machine drives a two-tier
cache under pressure (eviction, demotion, promotion, abort rollbacks,
``reset()``) and a directory fed through the cache's observer with such
sessions; after every step each anchored walk must equal the same walk of
``np.asarray(handle)``, which carries no anchor, node for node.
"""

from __future__ import annotations

import gc
import pickle
import weakref
from collections import deque

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cluster.directory import PrefixDirectory
from repro.core.cache import MarconiCache
from repro.core.radix_tree import RadixTree
from repro.core.tokens import TokenSeq, anchor_key, resume_anchor
from repro.models.presets import tiny_test_model
from repro.tiering import TieredMarconiCache

SEGMENT = st.lists(st.integers(0, 2), min_size=1, max_size=10)


def assert_same_match(tree: RadixTree, handle: TokenSeq) -> None:
    anchored = tree.match(handle)
    plain = tree.match(np.asarray(handle))
    assert anchored.matched_len == plain.matched_len
    assert anchored.deepest_node is plain.deepest_node
    assert len(anchored.path) == len(plain.path)
    assert all(a is b for a, b in zip(anchored.path, plain.path))


def assert_same_lookup(directory: PrefixDirectory, handle: TokenSeq) -> None:
    limit = len(handle) - 1
    anchored = directory.index.lookup(handle, limit)
    plain = directory.index.lookup(np.asarray(handle), limit)
    assert (anchored.matched, anchored.limit) == (plain.matched, plain.limit)
    assert anchored.last is plain.last
    assert [(d, id(h)) for d, h in anchored.checkpoints()] == [
        (d, id(h)) for d, h in plain.checkpoints()
    ]


class AnchoredWalkMachine(RuleBasedStateMachine):
    """Sessions that are prefix handles of shared buffers, against a
    contended two-tier cache and a directory observing it."""

    def __init__(self) -> None:
        super().__init__()
        self.cache = TieredMarconiCache(
            tiny_test_model(), capacity_bytes=200_000, secondary_bytes=400_000, alpha=1.0
        )
        self.directory = PrefixDirectory()
        assert self.directory.attach(0, self.cache)
        self.clock = 0.0
        self.buffers: list[TokenSeq] = []
        self.handles: list[TokenSeq] = []
        self.open: list[tuple] = []  # (session, the handle it commits)
        # What a caller may still hold after a step (a routing decision's
        # lookup, a closed session, an insert's outcome) keeps the nodes
        # it names alive once they are detached: an anchor then still
        # resolves to them, and only the attached check turns it down.
        self.kept: deque = deque(maxlen=8)

    def _now(self) -> float:
        self.clock += 1.0
        return self.clock

    def _handles(self, data) -> tuple[TokenSeq, TokenSeq]:
        """A prefix handle of a buffer and a longer one of the same buffer."""
        buffer = data.draw(st.sampled_from(self.buffers))
        start = data.draw(st.integers(1, len(buffer)))
        end = data.draw(st.integers(start, len(buffer)))
        pair = buffer.prefix(start), buffer.prefix(end)
        self.handles.extend(pair)
        return pair

    @rule(data=st.data(), segments=st.lists(SEGMENT, min_size=1, max_size=5))
    def new_buffer(self, data, segments):
        """A session's whole history; it may start with another's."""
        head: list[int] = []
        if self.buffers:
            other = data.draw(st.sampled_from(self.buffers))
            head = other.arr[: data.draw(st.integers(0, len(other)))].tolist()
        self.buffers.append(TokenSeq(head + [t for s in segments for t in s]))

    @precondition(lambda self: self.buffers)
    @rule(data=st.data())
    def session_round(self, data):
        """Route (a directory lookup), begin on a prefix handle, commit a
        longer one of the same buffer."""
        handle, full = self._handles(data)
        self.kept.append(self.directory.lookup(handle, len(handle) - 1))
        with self.cache.begin(handle, self._now()) as session:
            session.commit(full, self._now())
        self.kept.append(session)

    @precondition(lambda self: self.buffers)
    @rule(data=st.data())
    def begin_only(self, data):
        """Open a session and leave it in flight (its path stays pinned)."""
        handle, full = self._handles(data)
        self.kept.append(self.directory.lookup(handle, len(handle) - 1))
        self.open.append((self.cache.begin(handle, self._now()), full))

    @precondition(lambda self: self.open)
    @rule(data=st.data(), commit=st.booleans())
    def close(self, data, commit):
        """Commit or abort an in-flight session, in any order."""
        session, full = self.open.pop(data.draw(st.integers(0, len(self.open) - 1)))
        if commit:
            session.commit(full, self._now())
        else:
            session.abort()
        self.kept.append(session)

    @precondition(lambda self: self.buffers)
    @rule(data=st.data())
    def insert_and_undo(self, data):
        """An anchored insert lands where the root walk finds it; undone,
        it leaves its anchor on a detached node."""
        handle, _ = self._handles(data)
        tree = self.cache.tree
        outcome = tree.insert(handle, self._now())
        again = tree.insert(np.asarray(handle), self._now())
        assert again.end_node is outcome.end_node
        assert again.new_leaf is None and again.split_node is None
        assert outcome.end_node.seq_len == len(handle)
        tree.undo_insert(outcome.new_leaf, outcome.split_node)
        self.kept.append(outcome)

    @rule()
    def reset(self):
        self.cache.reset()
        self.open.clear()  # detached by the reset

    @invariant()
    def anchored_walks_are_root_walks(self):
        # A checking walk moves its buffer's anchors: each check starts from
        # the anchors the steps left, and leaves them so.
        tree = self.cache.tree
        for handle in self.handles[-12:] + self.buffers:
            anchors = handle.anchors
            left = dict(anchors)
            for check in (
                lambda: assert_same_match(tree, handle),
                lambda: assert_same_lookup(self.directory, handle),
            ):
                check()
                anchors.clear()
                anchors.update(left)

    @invariant()
    def structures_hold(self):
        self.cache.check_integrity()
        self.directory.check_integrity()


TestAnchoredWalks = AnchoredWalkMachine.TestCase
TestAnchoredWalks.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def _session_round(cache: MarconiCache, buffer: TokenSeq, start: int, end: int) -> None:
    with cache.begin(buffer.prefix(start), 1.0) as session:
        session.commit(buffer.prefix(end), 1.5)


class TestRetention:
    def test_reset_frees_the_old_tree_while_the_session_handle_lives(self):
        cache = MarconiCache(tiny_test_model(), int(1e12), alpha=0.0)
        buffer = TokenSeq(np.arange(1, 60, dtype=np.int32))
        _session_round(cache, buffer, 10, 20)
        old = weakref.ref(cache.tree)
        assert buffer.anchors
        cache.reset()
        gc.collect()
        assert old() is None
        match = cache.tree.match(buffer.prefix(30))
        assert match.matched_len == 0 and match.deepest_node is None

    def test_a_tuner_replay_clone_is_freed(self):
        cache = MarconiCache(tiny_test_model(), int(1e12), alpha=1.0)
        buffer = TokenSeq(np.arange(1, 60, dtype=np.int32))
        _session_round(cache, buffer, 10, 20)
        replica = cache.make_replay_cache(0.5, cache.snapshot_for_replay())
        _session_round(replica, buffer, 30, 40)  # a live handle into the clone
        clone = weakref.ref(replica.tree)
        del replica
        gc.collect()
        assert clone() is None
        assert len(buffer.anchors) == 2  # the live tree's anchor and a dead one
        assert cache.tree.match(buffer.prefix(50)).matched_len == 20

    def test_a_new_tree_never_resumes_at_a_dropped_trees_anchor(self):
        """The dropped tree's nodes stay alive and attached (as when a
        detached session holds one): a key a new tree could share with it
        (``id()`` is reused) would resume there."""
        buffer = TokenSeq(np.arange(1, 30, dtype=np.int32))
        kept = []
        for _ in range(20):
            tree = RadixTree()
            kept.append(tree.insert(buffer.prefix(20), 0.0).end_node)
            del tree
            gc.collect()
            match = RadixTree().match(buffer)
            assert match.matched_len == 0 and match.deepest_node is None
        assert all(node.parent is not None for node in kept)

    def test_a_walked_handle_pickles_without_its_anchors(self):
        tree = RadixTree()
        handle = TokenSeq(np.arange(1, 30, dtype=np.int32)).prefix(20)
        tree.insert(handle, 0.0)
        assert handle.anchors  # weak references, which do not pickle
        copy = pickle.loads(pickle.dumps(handle))
        assert copy == handle and not copy.anchors


class TestResumeAnchor:
    def test_anchor_keys_are_fresh(self):
        keys = [anchor_key() for _ in range(50)]
        assert len(set(keys)) == 50
        assert keys == sorted(keys)
        assert anchor_key() not in keys

    def test_a_plain_array_has_no_anchor_map(self):
        assert resume_anchor(np.arange(5, dtype=np.int32), anchor_key()) == (None, None)

    def test_a_walk_anchors_the_deepest_node_under_its_trees_key(self):
        tree = RadixTree()
        buffer = TokenSeq(np.arange(1, 30, dtype=np.int32))
        end = tree.insert(buffer.prefix(20), 0.0).end_node
        (key,) = buffer.anchors
        anchors, node = resume_anchor(buffer, key)
        assert anchors is buffer.anchors
        assert node is end
        assert resume_anchor(buffer, anchor_key()) == (buffer.anchors, None)

    def test_prefix_handles_share_the_buffers_anchors(self):
        buffer = TokenSeq(np.arange(1, 30, dtype=np.int32))
        head = buffer.prefix(10)
        assert head.anchors is buffer.anchors
        RadixTree().insert(head, 0.0)
        assert len(buffer.anchors) == 1

    def test_a_dropped_trees_anchor_reads_as_none(self):
        buffer = TokenSeq(np.arange(1, 30, dtype=np.int32))
        tree = RadixTree()
        tree.insert(buffer.prefix(20), 0.0)
        (key,) = buffer.anchors
        del tree
        gc.collect()
        assert resume_anchor(buffer, key) == (buffer.anchors, None)
