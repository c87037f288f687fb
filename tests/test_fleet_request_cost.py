"""A fleet request costs what it touches — and decides what it decided.

PR 24 took four per-request passes over the whole fleet (the kernel's load
list, the router's dense hit list and Python-keyed arg-max, the least-loaded
tie scan) and two over whole token paths (the second tier's per-length
re-serialization) off the request path.  The first suites hold each cut
equal to the code it replaced, copied here verbatim as the oracle; the last
parses the sources and fails when one of the passes comes back.

The kernel's load list is held to the per-request rebuild in
``tests/test_failure_injection.py::TestKernelLoadList``, owner-only
directory ingest to apply-on-all in ``tests/test_directory_boundary.py``.
"""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    DirectoryRouter,
    HierarchicalRouter,
    PrefixAffinityRouter,
    PrefixDirectory,
    probe_hit_tokens,
)
from repro.cluster import router as router_module
from repro.cluster import sharded_directory as sharded_module
from repro.core.cache import MarconiCache
from repro.core.tokens import TokenSeq
from repro.engine import kernel as kernel_module
from repro.engine.kernel import DEAD_LOAD
from repro.engine.latency import LatencyModel
from repro.engine.steering import pick_least_loaded
from repro.models.presets import hybrid_7b, transformer_7b
from repro.tiering import SecondaryStore, TieredMarconiCache
from repro.tiering import secondary as secondary_module

HYBRID = hybrid_7b()
TRANSFORMER = transformer_7b()
#: Compute so slow and links so fast that a dozen tokens are worth shipping.
LOAD_BEATS_COMPUTE = LatencyModel(
    peak_flops_per_s=1e9,
    transfer_latency_s=0.0,
    transfer_bandwidth_bytes_per_s=1e15,
    secondary_fetch_bandwidth_bytes_per_s=1e15,
)


# ----------------------------------------------------------------------
# The parent's passes, verbatim (commit 05d523e)
# ----------------------------------------------------------------------
def dense_pick_least_loaded(loads, rotation):
    floor = min(loads)
    tied = [index for index, load in enumerate(loads) if load == floor]
    return tied[rotation % len(tied)]


class _DensePasses:
    """Mixed in before a router class: ``_hits`` builds the dense
    per-replica list and ``_select`` scans it, as both did at the parent."""

    def _hits(self, tokens, caches, lookup=None):
        if not self._reads_directory(len(caches)):
            return [probe_hit_tokens(cache, tokens) for cache in caches]
        if lookup is None:
            self._bind(caches)
            lookup = self._directory.lookup(tokens, limit=len(tokens) - 1)
        cap = max(len(tokens) - 1, 0)
        ckpt_depth = lookup.ckpt_depth
        kv_matched = lookup.kv_matched
        rules = {index: rule for rule, bound in self._rules.items() for index in bound}
        hits = []
        for index in range(len(rules)):
            rule = rules[index]
            if rule == "ckpt":
                hits.append(ckpt_depth.get(index, 0))
            elif rule == "kv":
                kv = kv_matched.get(index, 0)
                hits.append(kv if kv < cap else cap)
            else:
                hits.append(probe_hit_tokens(caches[index], tokens))
        return hits

    def _select(self, hits, loads):
        best = int(max(range(len(hits)), key=lambda i: (hits[i], -loads[i], -i)))
        floor = min(loads)
        if hits[best] == 0 or loads[best] - floor > self.max_imbalance:
            self._bump("spilled" if hits[best] > 0 else "cold")
            return self._fallback._pick(loads)
        self._bump("affinity")
        return best

    def _plan_transfer(self, tokens, caches, hits, lookup, target):
        return super()._plan_transfer(
            tokens, caches, dict(enumerate(hits)), lookup, target
        )


class _DenseRackPasses(_DensePasses):
    def _select(self, hits, loads):
        n = len(hits)
        size = self.rack_size
        if n <= size:
            return super()._select(hits, loads)
        n_racks = (n + size - 1) // size
        members = [range(r * size, min((r + 1) * size, n)) for r in range(n_racks)]

        def rack_key(rack):
            rows = members[rack]
            return (
                max(hits[i] for i in rows),
                -min(loads[i] for i in rows),
                -rack,
            )

        rack = max(range(n_racks), key=rack_key)
        rows = members[rack]
        best = max(rows, key=lambda i: (hits[i], -loads[i], -i))
        if hits[best] == 0:
            self._bump("cold")
            return self._fallback._pick(loads)
        floor = min(loads[i] for i in rows)
        if loads[best] - floor > self.rack_max_imbalance:
            self._bump("rack_spilled")
            pick = dense_pick_least_loaded(
                [loads[i] for i in rows], self._rack_rotation
            )
            self._rack_rotation += 1
            return rows[pick]
        self._bump("rack_affinity")
        return best


class DensePrefixAffinity(_DensePasses, PrefixAffinityRouter):
    pass


class DenseDirectory(_DensePasses, DirectoryRouter):
    pass


class DenseHierarchical(_DenseRackPasses, HierarchicalRouter):
    pass


PAIRS = [
    (PrefixAffinityRouter, DensePrefixAffinity, {"max_imbalance": 2}),
    (DirectoryRouter, DenseDirectory, {"max_imbalance": 1, "transfer_min_tokens": 2}),
    (HierarchicalRouter, DenseHierarchical, {"rack_size": 3, "max_imbalance": 2}),
    (
        HierarchicalRouter,
        DenseHierarchical,
        {"rack_size": 4, "max_imbalance": 3, "rack_max_imbalance": 0},
    ),
]


# ----------------------------------------------------------------------
# (a) sparse selection == dense selection
# ----------------------------------------------------------------------
@st.composite
def hit_load_rounds(draw):
    """A fleet size and a sequence of ``(dense hits, loads)``: few distinct
    values (ties everywhere), dead replicas, dead hit holders, all-zero
    hits; a sequence so the tie rotations are exercised too."""
    n = draw(st.integers(1, 14))
    load = st.one_of(st.integers(0, 4), st.just(DEAD_LOAD))
    rounds = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from([0, 0, 0, 5, 5, 9]), min_size=n, max_size=n),
                st.lists(load, min_size=n, max_size=n),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return rounds


class TestSparseSelectionIsTheDenseRule:
    @pytest.mark.parametrize("new_cls, old_cls, kwargs", PAIRS)
    @settings(max_examples=120, deadline=None)
    @given(rounds=hit_load_rounds(), as_tuple=st.booleans())
    def test_select_agrees_round_after_round(
        self, new_cls, old_cls, kwargs, rounds, as_tuple
    ):
        new, old = new_cls(**kwargs), old_cls(**kwargs)
        for hits, loads in rounds:
            lent = tuple(loads) if as_tuple else list(loads)
            sparse = {index: hit for index, hit in enumerate(hits) if hit}
            assert new._select(sparse, lent) == old._select(hits, loads)
            assert list(lent) == loads  # read, never written
        assert new.decision_stats == old.decision_stats

    def test_a_dense_sequence_is_read_as_its_mapping(self):
        a, b = PrefixAffinityRouter(max_imbalance=1), PrefixAffinityRouter(max_imbalance=1)
        for hits, loads in (([0, 7, 7, 0], [3, 2, 2, 0]), ([0, 0, 0, 0], [1, 0, 0, 1])):
            sparse = {i: h for i, h in enumerate(hits) if h}
            assert a._select(hits, loads) == b._select(sparse, loads)
        assert a.decision_stats == b.decision_stats


class _StaleAnswers(PrefixDirectory):
    """An oracle directory whose every answer also names replicas the
    router never bound (a shared backend serving a larger fleet, a stale
    shard): indices at and past the fleet size, deeper than any real hit."""

    def lookup(self, tokens, limit=None):
        out = super().lookup(tokens, limit)
        for ghost in (self.fleet_size, self.fleet_size + 5):
            out.ckpt_depth[ghost] = 10_000
            out.ckpt_depths[ghost] = [10_000]
            out.kv_matched[ghost] = 10_000
        return out


class _ProbedCache:
    """A replica the directory cannot track (its own ``probe``): the
    router deep-probes it, whichever way it reads the others."""

    def __init__(self, answer):
        self.answer = answer

    def probe(self, tokens):
        return min(self.answer, max(len(tokens) - 1, 0))


def tiny(n, seed, vocab=3):
    return np.random.default_rng(seed).integers(0, vocab, size=n, dtype=np.int32)


def mixed_fleet(kinds, seeds):
    """Replicas by hit rule (``ckpt`` ones can land transfers) and every
    sequence they served, for queries that match to their last token."""
    caches, served = [], []
    for kind, seed in zip(kinds, seeds):
        if kind == "probe":
            caches.append(_ProbedCache(seed % 7))
            continue
        if kind == "ckpt":
            cache = TieredMarconiCache(HYBRID, int(1e12), secondary_bytes=int(1e12), alpha=0.0)
        else:
            cache = MarconiCache(TRANSFORMER, int(1e12), alpha=0.0)
        for k in range(seed % 3):  # some replicas stay cold
            seq = tiny(6 + (seed + k) % 9, seed + k)
            with cache.begin(seq, float(k)) as session:
                full = np.concatenate([seq, tiny(3, seed + 50 + k)])
                session.commit(full, k + 0.5)
            served.append(full)
        caches.append(cache)
    return caches, served


def as_fields(decision):
    transfer = decision.transfer
    if transfer is None:
        return decision.replica, None
    return decision.replica, (
        type(transfer).__name__,
        transfer.source,
        transfer.target,
        transfer.nbytes,
        transfer.tokens.tolist(),
    )


class TestRoutersDecideWhatTheyDecided:
    """Whole ``route`` / ``decide`` calls over real caches and a directory
    that over-answers: the sparse path must drop the unbound indices the
    dense enumeration never reached, and plan the same transfers."""

    @pytest.mark.parametrize("new_cls, old_cls, kwargs", PAIRS)
    @settings(max_examples=40, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(["ckpt", "ckpt", "kv", "probe"]), min_size=1, max_size=9),
        seed=st.integers(0, 10_000),
        queries=st.lists(
            st.tuples(st.integers(1, 16), st.integers(0, 60)), min_size=1, max_size=10
        ),
    )
    def test_same_replica_same_transfer_same_stats(
        self, new_cls, old_cls, kwargs, kinds, seed, queries
    ):
        rng = np.random.default_rng(seed)
        caches, served = mixed_fleet(
            kinds, [int(s) for s in rng.integers(0, 60, size=len(kinds))]
        )
        routers = []
        for cls in (new_cls, old_cls):
            directory = _StaleAnswers()
            directory.fleet_size = len(caches)
            router = cls(directory=directory, **kwargs)
            router.prepare(HYBRID, caches, LOAD_BEATS_COMPUTE)
            routers.append(router)
        new, old = routers
        for qi, (length, qseed) in enumerate(queries):
            query = tiny(length, qseed)
            if served and qseed % 3:  # a served sequence, whole or extended
                query = np.concatenate([served[qseed % len(served)], query[: qseed % 4]])
                length = len(query)
            if qi % 2:
                query = TokenSeq.of(np.concatenate([query, tiny(4, 1)])).prefix(length)
            loads = [
                DEAD_LOAD if draw == 5 else int(draw)
                for draw in rng.integers(0, 6, size=len(caches))
            ]
            lent = list(loads)
            got = new.decide(query, qi, caches, lent, float(qi))
            assert lent == loads
            assert as_fields(got) == as_fields(old.decide(query, qi, caches, loads, float(qi)))
        assert new.decision_stats == old.decision_stats
        for router in routers:
            router.directory.close()

    def test_the_streams_do_plan_transfers_and_cap_whole_matches(self):
        """A fixed fleet, so the property above is known to meet a planned
        transfer onto a replica with a shallower hit of its own, and a
        pure-Transformer replica matching a query to its last token."""
        caches, served = mixed_fleet(["ckpt", "ckpt", "kv"], [2, 1, 2])
        shared = served[0]
        with caches[1].begin(shared[:8], 5.0) as session:  # a shallower copy
            session.commit(shared[:8], 5.5)
        for new_cls, old_cls, _ in PAIRS[:2]:
            pair = []
            for cls in (new_cls, old_cls):
                router = cls(directory=PrefixDirectory(), max_imbalance=0)
                if cls.name == "directory":
                    router.transfer_min_tokens = 1
                router.prepare(HYBRID, caches, LOAD_BEATS_COMPUTE)
                pair.append(router)
            new, old = pair
            # Replica 0 holds the deep hit but is loaded: spill to 1.
            decisions = [
                as_fields(r.decide(np.append(shared, 1), 0, caches, [3, 0, 9], 9.0))
                for r in pair
            ]
            assert decisions[0] == decisions[1]
            if new_cls is DirectoryRouter:
                replica, transfer = decisions[0]
                assert replica == 1 and transfer is not None and transfer[1:3] == (0, 1)
                # The span still missing locally is what must be worth it.
                local = new._hits(np.append(shared, 1), caches)[1]
                assert 0 < local < len(shared)
                for router in pair:
                    router.transfer_min_tokens = len(shared) - local + 1
                    again = router.decide(np.append(shared, 1), 1, caches, [3, 0, 9], 9.0)
                    assert as_fields(again) == (1, None)
            whole = served[-1]  # the kv replica's own sequence, whole
            hits = new._hits(whole, caches)
            assert hits[2] == len(whole) - 1 == old._hits(whole, caches)[2]
            for router in pair:
                router.directory.close()

    def test_deep_probe_fleets_agree_too(self):
        """Below the probe threshold with no backend: hits come from the
        replica trees, through the same one selection body."""
        caches, _ = mixed_fleet(["ckpt"] * 5, [4, 7, 8, 11, 13])
        new, old = PrefixAffinityRouter(max_imbalance=1), DensePrefixAffinity(max_imbalance=1)
        for qi in range(12):
            query = tiny(5 + qi, 4 + qi % 5)
            loads = [(qi + i) % 3 for i in range(5)]
            assert new.route(query, qi, caches, loads, 0.0) == old.route(
                query, qi, caches, loads, 0.0
            )
        assert new.directory is None and new.decision_stats == old.decision_stats


# ----------------------------------------------------------------------
# (b) the tie scan
# ----------------------------------------------------------------------
class TestPickLeastLoaded:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 3), st.just(DEAD_LOAD)), min_size=1, max_size=12))
    def test_every_rotation_over_lists_and_tuples(self, loads):
        for rotation in range(2 * len(loads) + 2):
            want = dense_pick_least_loaded(loads, rotation)
            assert pick_least_loaded(loads, rotation) == want
            assert pick_least_loaded(tuple(loads), rotation) == want


# ----------------------------------------------------------------------
# (e) the second tier compares in place
# ----------------------------------------------------------------------
def tobytes_find(store, tokens):
    """The parent's keying: an entry is found by the exact bytes of the
    tokens it was stored under."""
    arr = np.asarray(tokens, dtype=np.int32)
    key = arr.tobytes()
    for entry in store.iter_entries():
        if entry.seq_len == len(arr) and entry.tokens.tobytes() == key:
            return entry
    return None


def tobytes_longest_match(store, tokens, max_len):
    arr = np.asarray(tokens, dtype=np.int32)
    limit = min(max_len, len(arr))
    for length in sorted({e.seq_len for e in store.iter_entries()}, reverse=True):
        if length <= limit:
            entry = tobytes_find(store, arr[:length])
            if entry is not None:
                return entry
    return None


@st.composite
def store_scripts(draw):
    """Sequences over a tiny vocabulary hanging off one long shared stem, so
    same-length entries differ only near their ends."""
    stem = draw(st.lists(st.integers(0, 2), min_size=6, max_size=10))
    tails = st.lists(st.integers(0, 2), min_size=0, max_size=4)
    sequence = st.builds(lambda cut, tail: stem[: len(stem) - cut] + tail, st.integers(0, 3), tails)
    sequence = sequence.filter(len)
    ops = st.lists(
        st.tuples(st.sampled_from(["insert", "insert", "remove", "match", "contains"]), sequence),
        min_size=1,
        max_size=30,
    )
    return draw(ops), draw(st.integers(3, 40))


class TestSecondaryStoreComparesInPlace:
    @settings(max_examples=150, deadline=None)
    @given(store_scripts())
    def test_match_remove_contains_agree_with_the_tobytes_forms(self, script):
        ops, capacity = script
        store = SecondaryStore(capacity_bytes=capacity)
        now = 0.0
        for action, seq in ops:
            now += 1.0
            if action == "insert":
                store.insert(seq, nbytes=1 + len(seq) % 5, now=now)
            elif action == "remove":
                want = tobytes_find(store, seq)
                assert store.remove(seq) is want
                assert tobytes_find(store, seq) is None
            elif action == "contains":
                want = tobytes_find(store, seq) is not None
                assert (seq in store) is want
                # A prefix handle lends bytes that run past its length.
                assert (TokenSeq.of(seq + [1, 2]).prefix(len(seq)) in store) is want
            else:
                for query in (seq, seq + [0, 1], seq[:2]):
                    for max_len in (len(query), len(query) - 1, 2):
                        want = tobytes_longest_match(store, query, max_len)
                        handle = TokenSeq.of(query + [2, 2]).prefix(len(query))
                        assert store.longest_match(query, max_len, now) is want
                        assert store.longest_match(handle, max_len, now) is want
            keys = [entry.key for entry in store.iter_entries()]
            assert len(set(keys)) == len(keys)
            assert all(entry.tokens.tobytes() == entry.key for entry in store.iter_entries())
            assert store.used_bytes == sum(e.nbytes for e in store.iter_entries())
            assert store.used_bytes <= capacity

    def test_two_entries_of_one_length_sharing_a_long_prefix(self):
        store = SecondaryStore(capacity_bytes=100)
        stem = list(range(50))
        store.insert(stem + [1], 10, now=0.0)
        store.insert(stem + [2], 10, now=1.0)
        assert store.longest_match(stem + [2, 9], 60, 2.0).tokens[-1] == 2
        assert store.longest_match(stem + [1, 9], 60, 2.0).tokens[-1] == 1
        assert store.longest_match(stem + [3, 9], 60, 2.0) is None
        assert store.longest_match(stem + [2, 9], 50, 2.0) is None  # capped below both
        assert stem + [2] in store and stem + [3] not in store
        assert store.remove(stem + [1]).tokens[-1] == 1 and store.n_entries == 1

    def test_a_query_shorter_than_every_entry(self):
        store = SecondaryStore(capacity_bytes=100)
        store.insert(list(range(20)), 10, now=0.0)
        store.insert(list(range(30)), 10, now=0.0)
        assert store.longest_match(list(range(10)), 10, 1.0) is None
        # ... also when the handle's backing bytes do hold an entry's tokens.
        short = TokenSeq.of(list(range(40))).prefix(10)
        assert store.longest_match(short, 10, 1.0) is None
        assert short not in store and store.remove(short) is None
        assert store.longest_match(TokenSeq.of(list(range(40))).prefix(25), 24, 1.0).seq_len == 20


# ----------------------------------------------------------------------
# The passes, read from the sources
# ----------------------------------------------------------------------
def function(module, *path):
    """The ``ast`` node of ``Class.method`` / ``function`` in ``module``."""
    scope = ast.parse(inspect.getsource(module))
    for name in path:
        scope = next(
            node
            for node in scope.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        )
    return scope


def comprehensions_over(tree, what):
    """Comprehensions and ``for`` loops in ``tree`` that iterate something
    mentioning ``what``."""
    found = []
    for node in ast.walk(tree):
        iters = []
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters = [generator.iter for generator in node.generators]
        elif isinstance(node, ast.For):
            iters = [node.iter]
        found += [ast.unparse(it) for it in iters if what in ast.unparse(it)]
    return found


def calls(tree, name):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
    ]


def method_definitions(module, name):
    return [
        f"{cls.name}.{node.name}"
        for cls in ast.parse(inspect.getsource(module)).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]


class TestNoFleetSizedPassPerRequest:
    def test_loads_is_not_rebuilt_from_the_schedulers(self):
        loads = function(kernel_module, "SimulationKernel", "loads")
        assert comprehensions_over(loads, "schedulers") == []
        assert not calls(loads, "_routable")

    def test_one_selection_body_and_no_dense_scan(self):
        assert method_definitions(router_module, "_select") == ["PrefixAffinityRouter._select"]
        select = function(router_module, "PrefixAffinityRouter", "_select")
        assert "range(len(hits))" not in ast.unparse(select)
        # The three prefix routers share it (DirectoryRouter and
        # HierarchicalRouter only say where it applies).
        for cls in (DirectoryRouter, HierarchicalRouter):
            assert cls._select is PrefixAffinityRouter._select
        # _bind's per-request part is the identity check before its early
        # return, with no pass over ``caches``; the id compare and the
        # attach loop below it run when the fleet changed.
        bind = function(router_module, "PrefixAffinityRouter", "_bind")
        first_return = next(i for i, stmt in enumerate(bind.body) if "return" in ast.unparse(stmt))
        check = ast.Module(body=bind.body[: first_return + 1], type_ignores=[])
        assert comprehensions_over(check, "caches") == [] and not calls(check, "map")
        assert "caches is self._bound" in ast.unparse(check)

    def test_synchronous_ingest_applies_past_region_ops_on_the_owner_alone(self):
        ingest = function(sharded_module, "ShardedPrefixDirectory", "_ingest")
        guarded = [
            node
            for node in ast.walk(ingest)
            if isinstance(node, ast.If)
            and "owner_only" in ast.unparse(node.test)
            and calls(node, "_apply")
        ]
        assert len(guarded) == len(calls(ingest, "_apply")) == 1
        assert "owner_only = self._past_region(update.kind, update.depth)" in ast.unparse(ingest)

    def test_secondary_store_serializes_only_where_it_stores(self):
        source = ast.parse(inspect.getsource(secondary_module))
        users = [
            node.name
            for node in ast.walk(source)
            if isinstance(node, ast.FunctionDef) and calls(node, "tobytes")
        ]
        assert users == ["insert"]

    def test_the_checks_catch_what_they_replaced(self):
        """The parent's bodies, verbatim."""
        old_loads = ast.parse(
            "def loads(self):\n"
            "    if not self.scenario:\n"
            "        return [s.queue_depth + s.n_running for s in self.schedulers]\n"
            "    return [(s.queue_depth + s.n_running) if self._routable(i) else DEAD_LOAD\n"
            "            for i, s in enumerate(self.schedulers)]\n"
        )
        assert len(comprehensions_over(old_loads, "schedulers")) == 2
        assert len(calls(old_loads, "_routable")) == 1
        old_bind = ast.parse("ids = [id(cache) for cache in caches]")
        assert comprehensions_over(old_bind, "caches") == ["caches"]
        old_match = ast.parse(
            "def longest_match(self, tokens):\n"
            "    entry = bucket.get(arr[:length].tobytes())\n"
            "def _evict_until(self):\n"
            "    entries = [e for e in self.iter_entries() if e.tokens.tobytes() != protect]\n"
        )
        assert [
            node.name
            for node in ast.walk(old_match)
            if isinstance(node, ast.FunctionDef) and calls(node, "tobytes")
        ] == ["longest_match", "_evict_until"]
