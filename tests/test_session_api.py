"""Session-API semantics: lifecycle, the sessions-only surface, leak safety.

Covers the transactional request-session surface:

* ``begin`` / ``commit | abort`` are the only doors of every cache, and a
  commit must extend the input its session began with,
* the lifecycle state machine (double-commit, commit-after-abort,
  abort-after-commit, detach-on-reset) behaves as documented,
* aborts — including abort storms under eviction pressure and interleaved
  with committing requests — leave zero pinned nodes, ``open_sessions == 0``,
  and intact accounting (``used_bytes == recompute_used_bytes()``).
"""

import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.registry import POLICY_NAMES, make_cache
from repro.baselines.sglang_plus import SGLangPlusCache
from repro.baselines.vanilla import VanillaCache
from repro.baselines.vllm_plus import VLLMPlusCache
from repro.core.cache import MarconiCache, MarconiSession
from repro.core.interfaces import CacheProtocol, LookupResult, SessionState
from repro.core.tokens import TokenSeq
from repro.models.presets import tiny_test_model
from repro.tiering.tiered_cache import TieredMarconiCache

# Small alphabet makes prefix collisions (splits, extensions) likely.
token_seq = st.lists(st.integers(0, 3), min_size=1, max_size=24)


@st.composite
def request_stream(draw, min_size=2, max_size=14):
    """A list of (input, output) pairs with organic prefix sharing."""
    n = draw(st.integers(min_size, max_size))
    requests = []
    history: list[list[int]] = []
    for _ in range(n):
        if history and draw(st.booleans()):
            base = draw(st.sampled_from(history))
            cut = draw(st.integers(1, len(base)))
            inp = base[:cut] + draw(token_seq)
        else:
            inp = draw(token_seq)
        out = draw(token_seq)
        requests.append((inp, out))
        history.append(inp + out)
    return requests


def _arr(seq) -> np.ndarray:
    return np.asarray(seq, dtype=np.int32)


def _make_cache(kind: str, capacity: int):
    model = tiny_test_model()
    if kind == "marconi":
        return MarconiCache(model, capacity, alpha=1.0)
    if kind == "sglang+":
        return SGLangPlusCache(model, capacity)
    if kind == "tiered":
        return TieredMarconiCache(model, capacity, capacity * 4, alpha=1.0)
    if kind == "vllm+":
        return VLLMPlusCache(model, capacity, block_size=4)
    if kind == "vanilla":
        return VanillaCache(model)
    raise KeyError(kind)


CACHE_KINDS = ("marconi", "tiered", "vllm+", "vanilla")


class TestLifecycle:
    def test_commit_closes_and_double_commit_raises(self):
        cache = _make_cache("marconi", 1 << 20)
        session = cache.begin(_arr([1, 2, 3]), 0.0)
        assert cache.open_sessions == 1
        session.commit(_arr([1, 2, 3, 4]), 0.5)
        assert session.state is SessionState.COMMITTED
        assert cache.open_sessions == 0
        with pytest.raises(ValueError, match="already admitted"):
            session.commit(_arr([1, 2, 3, 4]), 1.0)

    def test_commit_after_abort_raises(self):
        cache = _make_cache("marconi", 1 << 20)
        session = cache.begin(_arr([1, 2, 3]), 0.0)
        session.abort()
        assert session.is_aborted
        with pytest.raises(ValueError, match="aborted"):
            session.commit(_arr([1, 2, 3, 4]), 0.5)

    def test_abort_is_idempotent_and_safe_after_commit(self):
        cache = _make_cache("marconi", 1 << 20)
        session = cache.begin(_arr([1, 2, 3]), 0.0)
        session.commit(_arr([1, 2, 3, 4]), 0.5)
        session.abort()  # no-op
        assert session.is_committed
        other = cache.begin(_arr([7, 8]), 1.0)
        other.abort()
        other.abort()  # idempotent
        assert other.is_aborted
        assert cache.open_sessions == 0

    def test_context_manager_aborts_on_exception(self):
        cache = _make_cache("marconi", 1 << 24)
        with pytest.raises(RuntimeError):
            with cache.begin(_arr(list(range(12))), 0.0) as session:
                raise RuntimeError("prefill executor died")
        assert session.is_aborted
        assert cache.open_sessions == 0
        assert all(n.pin_count == 0 for n in cache.tree.iter_nodes())
        assert cache.used_bytes == cache.recompute_used_bytes()

    def test_context_manager_commit_wins(self):
        cache = _make_cache("marconi", 1 << 24)
        with cache.begin(_arr([1, 2, 3]), 0.0) as session:
            session.commit(_arr([1, 2, 3, 4]), 0.5)
        assert session.is_committed

    def test_gc_of_begin_session_aborts(self):
        cache = _make_cache("marconi", 1 << 24)
        cache.begin(_arr(list(range(16))), 0.0)  # dropped immediately
        gc.collect()
        assert cache.open_sessions == 0
        assert all(n.pin_count == 0 for n in cache.tree.iter_nodes())
        assert cache.used_bytes == cache.recompute_used_bytes()

    def test_gc_mid_operation_defers_abort_to_next_entry(self):
        """A session collected while the cache is mid-operation must not
        roll back reentrantly; it parks on the deferred list and drains at
        the next begin/commit."""
        cache = _make_cache("marconi", 1 << 24)
        session = cache.begin(_arr(list(range(16))), 0.0)
        cache._mutating = True  # simulate GC firing inside an operation
        del session
        gc.collect()
        cache._mutating = False
        assert cache._deferred_aborts, "session should be parked, not aborted"
        assert any(n.is_pinned for n in cache.tree.iter_nodes())
        cache.begin(_arr([7, 8]), 1.0).abort()  # next operation drains the backlog
        assert not cache._deferred_aborts
        assert cache.open_sessions == 0
        assert all(n.pin_count == 0 for n in cache.tree.iter_nodes())
        assert cache.used_bytes == cache.recompute_used_bytes()

    def test_reset_detaches_open_sessions(self):
        cache = _make_cache("marconi", 1 << 24)
        session = cache.begin(_arr([1, 2, 3]), 0.0)
        cache.reset()
        assert cache.open_sessions == 0
        assert session.state is SessionState.DETACHED
        with pytest.raises(ValueError, match="reset"):
            session.commit(_arr([1, 2, 3, 4]), 0.5)
        session.abort()  # inert, must not touch the rebuilt tree
        assert cache.used_bytes == 0 == cache.recompute_used_bytes()

    def test_attach_requires_open_session(self):
        cache = MarconiCache(tiny_test_model(), 1 << 24, alpha=1.0, store_states=True)
        session = cache.begin(_arr([1, 2, 3]), 0.0)
        session.commit(_arr([1, 2, 3, 4]), 0.5)
        with pytest.raises(ValueError, match="committed"):
            session.attach_branch_state(3, {"state": 1})

    def test_begin_many_orders_and_counts(self):
        cache = _make_cache("marconi", 1 << 24)
        seqs = [_arr([1, 2, 3]), _arr([1, 2, 9]), _arr([4, 5])]
        sessions = cache.begin_many(seqs, 0.0)
        assert len(sessions) == 3
        assert cache.open_sessions == 3
        for session, seq in zip(sessions, seqs):
            assert session.input_tokens == len(seq)
            session.commit(np.concatenate([seq, _arr([11])]), 1.0)
        assert cache.open_sessions == 0

    @pytest.mark.parametrize("kind", CACHE_KINDS)
    def test_every_cache_satisfies_protocol(self, kind):
        cache = _make_cache(kind, 1 << 20)
        assert isinstance(cache, CacheProtocol)

    def test_cache_surface_is_sessions_only(self):
        """No cache keeps a second door: the two-phase ``lookup`` / ``admit``
        pair and the handle it threaded are gone, and a dropped ``begin``
        always aborts (the GC net cannot be disarmed)."""
        model = tiny_test_model()
        caches = [make_cache(name, model, 1 << 20) for name in POLICY_NAMES]
        caches.append(_make_cache("tiered", 1 << 20))
        assert "handle" not in {f.name for f in dataclasses.fields(LookupResult)}
        for cache in caches:
            assert isinstance(cache, CacheProtocol)
            assert not hasattr(cache, "lookup") and not hasattr(cache, "admit")
            cache.begin(_arr(list(range(16))), 0.0)  # dropped immediately
            gc.collect()
            assert cache.open_sessions == 0
            assert cache.used_bytes == 0
            tree = getattr(cache, "tree", None)
            if tree is not None:
                assert tree.n_nodes == 0

    def test_marconi_session_type(self):
        cache = _make_cache("marconi", 1 << 20)
        session = cache.begin(_arr([1, 2]), 0.0)
        assert isinstance(session, MarconiSession)
        session.abort()


FOREIGN_FULLS = {
    # against the begin input 1..40
    "shorter": lambda a: a[:25],
    "diverging": lambda a: np.concatenate([a[:10], [777], a[11:], [5, 6, 7]]),
    "unrelated": lambda a: _arr([9, 9, 9] * 20),
}


class TestCommitPrecondition:
    """Commit resumes insertion from the begin-time end node, so a full
    sequence that does not extend the begin input would checkpoint a state
    under a path that was never served."""

    @pytest.mark.parametrize("kind", ("marconi", "sglang+", "tiered"))
    @pytest.mark.parametrize("shape", FOREIGN_FULLS)
    def test_commit_must_extend_the_begin_input(self, shape, kind):
        cache = _make_cache(kind, 1 << 24)
        neighbour = _arr([100, 101, 102])
        cache.begin(neighbour, 0.0).commit(_arr([100, 101, 102, 103]), 0.5)
        used = cache.used_bytes
        a = np.arange(1, 41, dtype=np.int32)
        foreign = _arr(FOREIGN_FULLS[shape](a))
        session = cache.begin(a, 1.0)
        with pytest.raises(ValueError, match="must extend"):
            session.commit(foreign, 1.5)
        assert session.is_open and cache.open_sessions == 1
        session.abort()
        assert all(n.pin_count == 0 for n in cache.tree.iter_nodes())
        assert cache.used_bytes == used == cache.recompute_used_bytes()
        cache.tree.check_integrity()
        # Nothing was checkpointed under the path the foreign sequence would
        # have been grafted onto: what it claimed to extend still misses.
        grafted = np.concatenate([a, foreign[len(a):], [1]]).astype(np.int32)
        with cache.begin(grafted, 2.0) as probe:
            assert probe.hit_tokens == 0

    def test_prefix_handles_of_one_buffer_commit_without_a_compare(self):
        """The kernel's rounds are two prefixes of one session buffer: the
        precondition holds by identity and length, and a shorter prefix of
        the same buffer is still refused."""
        cache = _make_cache("marconi", 1 << 24)
        history = TokenSeq(np.arange(1, 61, dtype=np.int32))
        session = cache.begin(history.prefix(40), 0.0)
        with pytest.raises(ValueError, match="must extend"):
            session.commit(history.prefix(30), 1.0)
        session.commit(history.prefix(50), 1.0)
        with cache.begin(history, 2.0) as follow:
            assert follow.hit_tokens == 50


class TestAbortRollback:
    def test_abort_releases_pins_and_rolls_back_insert(self):
        cache = _make_cache("marconi", 1 << 24)
        session = cache.begin(_arr(list(range(30))), 0.0)
        assert cache.used_bytes > 0
        session.abort()
        assert cache.used_bytes == 0
        assert cache.tree.n_nodes == 0
        assert all(n.pin_count == 0 for n in cache.tree.iter_nodes())

    def test_abort_keeps_shared_prefix_intact(self):
        """Aborting one request must not damage paths other requests
        committed (or still hold open) on the shared prefix."""
        cache = _make_cache("marconi", 1 << 24)
        shared = list(range(10))
        with cache.begin(_arr(shared + [91, 92]), 0.0) as first:
            first.commit(_arr(shared + [91, 92, 93]), 0.5)
        used_before = cache.used_bytes
        victim = cache.begin(_arr(shared + [77, 78]), 1.0)
        victim.abort()
        assert cache.used_bytes == used_before == cache.recompute_used_bytes()
        # The committed path still fully matches.
        assert cache.tree.match(_arr(shared + [91, 92, 93])).matched_len == 13
        cache.tree.check_integrity()

    def test_abort_preserves_extension_built_on_our_edge(self):
        """If another session grew a path through our speculative leaf,
        abort must leave the now-shared tokens in place."""
        cache = _make_cache("marconi", 1 << 24)
        ours = cache.begin(_arr([1, 2, 3, 4]), 0.0)
        with cache.begin(_arr([1, 2, 3, 4, 5, 6]), 1.0) as theirs:
            theirs.commit(_arr([1, 2, 3, 4, 5, 6, 7]), 1.5)
        ours.abort()
        assert all(n.pin_count == 0 for n in cache.tree.iter_nodes())
        assert cache.used_bytes == cache.recompute_used_bytes()
        assert cache.tree.match(_arr([1, 2, 3, 4, 5, 6, 7])).matched_len == 7
        cache.tree.check_integrity()

    def test_abort_storm_leaves_no_pins(self):
        """The regression for the seed's pin leak: a storm of sessions
        aborted under eviction pressure leaves zero pinned nodes and zero
        open sessions."""
        model = tiny_test_model()
        cache = MarconiCache(model, capacity_bytes=64 * 1024, alpha=1.0)
        rng = np.random.default_rng(7)
        history = []
        for i in range(200):
            if history and rng.random() < 0.5:
                base = history[rng.integers(len(history))]
                cut = int(rng.integers(1, len(base) + 1))
                inp = list(base[:cut]) + rng.integers(0, 4, size=6).tolist()
            else:
                inp = rng.integers(0, 4, size=int(rng.integers(4, 40))).tolist()
            session = cache.begin(_arr(inp), float(i))
            if rng.random() < 0.6:
                session.abort()
            else:
                full = inp + rng.integers(0, 4, size=8).tolist()
                session.commit(_arr(full), float(i) + 0.5)
                history.append(full)
            assert cache.used_bytes == cache.recompute_used_bytes()
        assert cache.open_sessions == 0
        assert all(n.pin_count == 0 for n in cache.tree.iter_nodes())
        assert cache.stats.extra.get("aborted_sessions", 0) > 0
        cache.tree.check_integrity()

    @given(requests=request_stream(min_size=4, max_size=18), data=st.data(),
           capacity_kb=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_random_interleavings_keep_invariants(self, requests, data, capacity_kb):
        """Arbitrary begin/commit/abort interleavings (with several
        sessions in flight at once, under eviction pressure) preserve the
        accounting invariant and end with no leaked pins."""
        model = tiny_test_model()
        cache = MarconiCache(model, capacity_bytes=capacity_kb * 1024, alpha=1.0)
        open_sessions: list[tuple[list, MarconiSession]] = []
        clock = 0.0
        for inp, out in requests:
            clock += 1.0
            open_sessions.append((inp + out, cache.begin(_arr(inp), clock)))
            while open_sessions and data.draw(st.booleans()):
                index = data.draw(st.integers(0, len(open_sessions) - 1))
                full, session = open_sessions.pop(index)
                if data.draw(st.booleans()):
                    session.abort()
                else:
                    clock += 1.0
                    session.commit(_arr(full), clock)
            assert cache.used_bytes == cache.recompute_used_bytes()
            assert cache.used_bytes <= cache.capacity_bytes
            cache.tree.check_integrity()
        for full, session in open_sessions:
            session.abort()
        assert cache.open_sessions == 0
        assert all(n.pin_count == 0 for n in cache.tree.iter_nodes())
        assert cache.used_bytes == cache.recompute_used_bytes()

    def test_tiered_abort_keeps_both_tiers_consistent(self):
        model = tiny_test_model()
        cache = TieredMarconiCache(model, 32 * 1024, 256 * 1024, alpha=1.0)
        rng = np.random.default_rng(3)
        for i in range(120):
            inp = rng.integers(0, 4, size=int(rng.integers(4, 30))).tolist()
            session = cache.begin(_arr(inp), float(i))
            if i % 3 == 0:
                session.abort()
            else:
                session.commit(_arr(inp + [1, 2, 3]), float(i) + 0.5)
        assert cache.open_sessions == 0
        assert all(n.pin_count == 0 for n in cache.tree.iter_nodes())
        assert cache.used_bytes == cache.recompute_used_bytes()
        assert cache.secondary_used_bytes <= cache.secondary.capacity_bytes
