"""Stateful model-based testing of MarconiCache against a brute-force oracle.

The reference model re-implements the *semantics* of Marconi's admission on
an unbounded cache with plain Python sets — no radix tree:

* the tree's node set is derived from pairwise longest-common-prefix
  arithmetic over all inserted sequences;
* a begin checkpoints a branch point exactly when its insert creates a
  *new* intermediate node (speculative insertion);
* a commit checkpoints the end of the full sequence;
* a hybrid hit is the deepest checkpointed proper prefix of the query.

Running random interleaved request streams through both implementations
checks that the real cache's hit lengths match the executable specification
exactly, while tree integrity and byte accounting hold as invariants.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.cache import MarconiCache
from repro.core.interfaces import RequestSession
from repro.models.presets import tiny_test_model
from repro.tiering import TieredMarconiCache

TOKENS = st.lists(st.integers(0, 3), min_size=1, max_size=12)


def _lcp(a: tuple, b: tuple) -> int:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


class ReferenceModel:
    """Executable specification of unbounded-capacity Marconi admission."""

    def __init__(self) -> None:
        self.paths: list[tuple] = []
        self.nodes: set[tuple] = set()
        self.checkpoints: set[tuple] = set()

    def _max_lcp(self, x: tuple) -> int:
        return max((_lcp(x, p) for p in self.paths), default=0)

    def _insert(self, x: tuple) -> tuple | None:
        """Insert a sequence; returns the newly created branch prefix, if any."""
        p = self._max_lcp(x)
        split: tuple | None = None
        if 0 < p and x[:p] not in self.nodes:
            # The walk diverged (or ended) mid-edge: a new node appears at p.
            split = x[:p]
            self.nodes.add(split)
        self.nodes.add(x)
        self.paths.append(x)
        return split

    def begin(self, x: tuple) -> int:
        hit = max(
            (
                len(c)
                for c in self.checkpoints
                if len(c) <= len(x) - 1 and x[: len(c)] == c
            ),
            default=0,
        )
        split = self._insert(x)
        if split is not None:
            self.checkpoints.add(split)
        return hit

    def commit(self, full: tuple) -> None:
        self._insert(full)
        self.checkpoints.add(full)


class MarconiSpecMachine(RuleBasedStateMachine):
    """Random request streams: real cache vs the reference model."""

    def __init__(self) -> None:
        super().__init__()
        self.model = tiny_test_model()
        assert self.model.has_recurrent_layers
        self.cache = MarconiCache(self.model, capacity_bytes=int(1e15), alpha=1.0)
        self.ref = ReferenceModel()
        self.clock = 0.0
        self.history: list[tuple] = []
        self.pending: list[tuple] = []  # (input_tuple, open session)

    def _now(self) -> float:
        self.clock += 1.0
        return self.clock

    def _check_hit(self, inp: tuple) -> RequestSession:
        expected = self.ref.begin(inp)
        session = self.cache.begin(np.asarray(inp, dtype=np.int32), self._now())
        assert session.hit_tokens == expected, (
            f"hit mismatch for {inp}: cache={session.hit_tokens} spec={expected}"
        )
        return session

    @rule(inp=TOKENS, out=TOKENS)
    def fresh_request(self, inp, out):
        """A full begin+commit cycle on a fresh random input."""
        inp, out = tuple(inp), tuple(out)
        session = self._check_hit(inp)
        full = inp + out
        session.commit(np.asarray(full, dtype=np.int32), self._now())
        self.ref.commit(full)
        self.history.append(full)

    @rule(data=st.data())
    def derived_request(self, data):
        """A request extending a prefix of an earlier sequence (reuse path)."""
        if not self.history:
            return
        base = data.draw(st.sampled_from(self.history))
        cut = data.draw(st.integers(1, len(base)))
        inp = base[:cut] + tuple(data.draw(TOKENS))
        out = tuple(data.draw(TOKENS))
        session = self._check_hit(inp)
        full = inp + out
        session.commit(np.asarray(full, dtype=np.int32), self._now())
        self.ref.commit(full)
        self.history.append(full)

    @rule(inp=TOKENS)
    def begin_only(self, inp):
        """Open a request and leave it in flight (pins its path)."""
        inp = tuple(inp)
        self.pending.append((inp, self._check_hit(inp)))

    @precondition(lambda self: self.pending)
    @rule(data=st.data(), out=TOKENS)
    def finish_pending(self, data, out):
        """Close a random in-flight request (possibly out of order)."""
        index = data.draw(st.integers(0, len(self.pending) - 1))
        inp, session = self.pending.pop(index)
        full = inp + tuple(out)
        session.commit(np.asarray(full, dtype=np.int32), self._now())
        self.ref.commit(full)
        self.history.append(full)

    @invariant()
    def accounting_holds(self):
        assert self.cache.used_bytes == self.cache.recompute_used_bytes()
        self.cache.tree.check_integrity()

    @invariant()
    def checkpoint_sets_agree(self):
        real = {
            tuple(int(t) for t in node.path_tokens())
            for node in self.cache.tree.iter_nodes()
            if node.has_ssm_state
        }
        assert real == self.ref.checkpoints


class ContendedInvariantMachine(RuleBasedStateMachine):
    """Random streams against a *small* cache: safety invariants only."""

    CACHE_FACTORY = staticmethod(
        lambda model: MarconiCache(model, capacity_bytes=200_000, alpha=1.0)
    )

    def __init__(self) -> None:
        super().__init__()
        self.model = tiny_test_model()
        self.cache = self.CACHE_FACTORY(self.model)
        self.clock = 0.0
        self.history: list[tuple] = []

    def _now(self) -> float:
        self.clock += 1.0
        return self.clock

    def _roundtrip(self, inp: tuple, out: tuple) -> None:
        session = self.cache.begin(np.asarray(inp, dtype=np.int32), self._now())
        hit = session.hit_tokens
        assert 0 <= hit <= len(inp) - 1
        if hit:
            assert tuple(inp[:hit]) in {h[:hit] for h in self.history if len(h) >= hit}
        full = inp + out
        session.commit(np.asarray(full, dtype=np.int32), self._now())
        self.history.append(full)

    @rule(inp=st.lists(st.integers(0, 2), min_size=1, max_size=40), out=TOKENS)
    def fresh_request(self, inp, out):
        self._roundtrip(tuple(inp), tuple(out))

    @rule(data=st.data())
    def derived_request(self, data):
        if not self.history:
            return
        base = data.draw(st.sampled_from(self.history))
        cut = data.draw(st.integers(1, len(base)))
        inp = base[:cut] + tuple(data.draw(TOKENS))
        self._roundtrip(inp, tuple(data.draw(TOKENS)))

    @invariant()
    def never_over_capacity(self):
        assert self.cache.used_bytes <= self.cache.capacity_bytes

    @invariant()
    def accounting_holds(self):
        assert self.cache.used_bytes == self.cache.recompute_used_bytes()
        self.cache.tree.check_integrity()

    @invariant()
    def no_pins_leak(self):
        assert all(n.pin_count == 0 for n in self.cache.tree.iter_nodes())


class TieredInvariantMachine(ContendedInvariantMachine):
    """The contended machine with a two-tier cache (demotion/promotion churn)."""

    CACHE_FACTORY = staticmethod(
        lambda model: TieredMarconiCache(
            model, capacity_bytes=200_000, secondary_bytes=400_000, alpha=1.0
        )
    )

    @invariant()
    def secondary_within_capacity(self):
        assert self.cache.secondary.used_bytes <= self.cache.secondary.capacity_bytes


TestMarconiSpec = MarconiSpecMachine.TestCase
TestMarconiSpec.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)

TestContendedInvariants = ContendedInvariantMachine.TestCase
TestContendedInvariants.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)

TestTieredInvariants = TieredInvariantMachine.TestCase
TestTieredInvariants.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
