"""One edge object per node: a radix or directory edge is one read-only
int32 array, lent (a slice of a session buffer's token array) or owned
(``np.frombuffer`` of bytes of its own), and nothing else.

A node that held its edge twice (raw bytes or a ``memoryview`` plus an
array over them) paid two objects per edge, and a lent one two views the
cyclic garbage collector tracks.  After a replay of an adopted trace's
nominal log, every edge of the cache's tree and of a directory fed by that
cache must be the node's only token buffer, an untracked read-only int32
array over an untracked base, whether the requests lent their buffers or
were private copies; and the lent tree must answer every ``match`` node for
node as the copied one does.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.cluster import PrefixDirectory
from repro.core.cache import MarconiCache
from repro.core.interfaces import replay_log
from repro.core.radix_tree import TreeObserver
from repro.core.tokens import TokenSeq
from repro.models.presets import hybrid_7b
from repro.workloads import generate_trace

#: ``capacity name -> (bytes, events the replay must include)``: a roomy
#: cache keeps every lent leaf; a tight one evicts, merges and truncates.
CAPACITIES = {"roomy": (int(1e15), {"split"}), "tight": (int(5e8), {"merge", "truncate"})}


class _Events(TreeObserver):
    def __init__(self) -> None:
        self.seen: set[str] = set()

    def on_edge_split(self, middle, child):
        self.seen.add("split")

    def on_merged(self, node, child):
        self.seen.add("merge")

    def on_leaf_truncated(self, node, dropped):
        assert isinstance(dropped, np.ndarray) and dropped.dtype == np.int32
        self.seen.add("truncate")


def _private(log):
    """The same log with every sequence a private copy (``TokenSeq(arr)``)."""
    return [
        (event, key, TokenSeq(tokens.arr), *rest)
        for event, key, tokens, *rest in log
    ]


def _replay(log, capacity):
    cache = MarconiCache(hybrid_7b(), capacity, alpha=1.0)
    events = _Events()
    cache.tree.add_observer(events)
    directory = PrefixDirectory()
    directory.attach(0, cache)
    replay_log(cache, log)
    cache.check_integrity()
    directory.check_integrity()
    return cache, directory, events.seen


def _lent(edge):
    """A lent edge is a slice of a session's token array (its base); an
    owned edge's base is bytes of its own."""
    return isinstance(edge.base, np.ndarray)


def _assert_one_edge(node, edge):
    """``edge`` is ``node``'s only token buffer: a read-only int32 array
    over an untracked base, itself untracked."""
    buffers = [
        r for r in gc.get_referents(node) if isinstance(r, (bytes, memoryview, np.ndarray))
    ]
    assert len(buffers) == 1 and buffers[0] is edge, f"node holds {len(buffers)} token buffers"
    assert type(edge) is np.ndarray and edge.dtype == np.int32 and edge.ndim == 1
    assert not edge.flags.writeable
    assert gc.is_tracked(edge) is False
    assert gc.is_tracked(edge.base) is False
    assert _lent(edge) or (isinstance(edge.base, bytes) and len(edge.base) == edge.nbytes)


def _shape(tree):
    return [(n.seq_len, n.edge_tokens.tobytes(), sorted(n.children)) for n in tree.iter_nodes()]


def _index_shape(directory):
    return [
        (n.end, n.edge.tobytes(), dict(n.cover), sorted(n.ckpt))
        for n in directory.index.iter_nodes()
    ]


@pytest.fixture(scope="module")
def nominal_log():
    return generate_trace("lmsys", n_sessions=20, seed=3).nominal_log()


class TestOneEdge:
    @pytest.mark.parametrize("capacity", sorted(CAPACITIES))
    @pytest.mark.parametrize("lend", [True, False], ids=["lent", "owned"])
    def test_every_edge_is_one_untracked_read_only_array(self, nominal_log, capacity, lend):
        size, wanted = CAPACITIES[capacity]
        log = nominal_log if lend else _private(nominal_log)
        cache, directory, seen = _replay(log, size)
        assert wanted <= seen, f"the replay must {sorted(wanted)}, saw {sorted(seen)}"
        nodes = list(cache.tree.iter_nodes(include_root=True))
        index_nodes = [directory.index.root, *directory.index.iter_nodes()]
        assert len(nodes) > 1 and len(index_nodes) > 1
        for node in nodes:
            _assert_one_edge(node, node.edge_tokens)
        for node in index_nodes:
            _assert_one_edge(node, node.edge)
        kinds = {_lent(n.edge_tokens) for n in nodes[1:]} | {_lent(n.edge) for n in index_nodes[1:]}
        if lend:
            assert True in kinds, "an adopted buffer lends the edges it adds"
        else:
            assert kinds == {False}, "a private request's edges own their bytes"

    @pytest.mark.parametrize("capacity", sorted(CAPACITIES))
    def test_a_lent_tree_matches_as_a_tree_of_private_copies(self, nominal_log, capacity):
        size, _ = CAPACITIES[capacity]
        lent, lent_directory, _ = _replay(nominal_log, size)
        copied, copied_directory, _ = _replay(_private(nominal_log), size)
        assert _shape(lent.tree) == _shape(copied.tree)
        assert _index_shape(lent_directory) == _index_shape(copied_directory)
        rng = np.random.default_rng(5)
        queries = [tokens for _, _, tokens, *_ in nominal_log]
        queries += [
            np.concatenate([q.arr[: int(rng.integers(0, len(q) + 1))], rng.integers(0, 9, 3)])
            for q in queries[::7]
        ]
        for query in queries:
            for spelling in (query, np.asarray(query)):
                want = copied.tree.match(spelling)
                got = lent.tree.match(spelling)
                assert got.matched_len == want.matched_len
                assert [n.seq_len for n in got.path] == [n.seq_len for n in want.path]
                assert [n.edge_tokens.tobytes() for n in got.path] == [
                    n.edge_tokens.tobytes() for n in want.path
                ]
                assert lent_directory.lookup(spelling) == copied_directory.lookup(spelling)
