"""Ordering contract of the tuple-backed event queue.

The seed's ``Event`` was a ``dataclass(order=True)`` whose generated
comparison would fall through to the *payload* whenever two events tied on
``(time, kind, seq)`` — a latent crash (unorderable payloads) or, worse, a
silent ordering dependence on payload internals.  The queue heaps plain
tuples with a per-queue serial as a comparison firewall; these tests pin
that contract, the external-``seq`` iterator compatibility path, and that
the entry and object pop surfaces agree.  (Pop order under heavy ties is
pinned by ``test_kernel_properties.py::TestEventQueueOrdering``.)
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.engine.events import (
    ENTRY_KIND,
    ENTRY_PAYLOAD,
    ENTRY_SEQ,
    ENTRY_TIME,
    EventKind,
    EventQueue,
)


class _Unorderable:
    """A payload that detonates if anything ever compares it."""

    def __lt__(self, other):  # pragma: no cover - the point is it never runs
        raise AssertionError("payload comparison reached the heap")

    __gt__ = __le__ = __ge__ = __lt__


class TestPayloadsNeverOrdered:
    def test_exact_key_ties_cannot_reach_payloads(self):
        """Two pushes with identical explicit (time, kind, seq) keys: the
        serial firewall must settle the tie before any payload comparison."""
        queue = EventQueue()
        first, second = _Unorderable(), _Unorderable()
        queue.push(2.0, EventKind.PREFILL_DONE, first, seq=-1)
        queue.push(2.0, EventKind.PREFILL_DONE, second, seq=-1)
        # Exact key ties resolve by push order.
        assert queue.pop().payload is first
        assert queue.pop().payload is second


class TestExternalSeqIterator:
    def test_shared_counter_numbers_across_queues(self):
        shared = itertools.count()
        q1, q2 = EventQueue(seq=shared), EventQueue(seq=shared)
        q1.push(0.0, EventKind.REQUEST_ARRIVAL, "a")
        q2.push(0.0, EventKind.REQUEST_ARRIVAL, "b")
        q1.push(0.0, EventKind.REQUEST_ARRIVAL, "c")
        # The shared iterator keeps numbering globally monotone.
        assert q1.pop().seq == 0
        assert q2.pop().seq == 1
        assert q1.pop().seq == 2

    def test_explicit_seq_overrides_counter(self):
        queue = EventQueue()
        queue.push(0.0, EventKind.REQUEST_ARRIVAL, "auto-0")
        queue.push(0.0, EventKind.REQUEST_ARRIVAL, "reserved", seq=-5)
        queue.push(0.0, EventKind.REQUEST_ARRIVAL, "auto-1")
        # Reserved negative seqs sort before every auto-numbered push at
        # equal (time, kind) — the kernel's streaming-admission contract —
        # and must not consume the queue's own counter.
        assert [queue.pop().payload for _ in range(3)] == [
            "reserved",
            "auto-0",
            "auto-1",
        ]


def _random_schedule(seed: int, n: int):
    rng = np.random.default_rng(seed)
    times = np.round(rng.uniform(0.0, 3.0, n), 1)  # coarse grid forces ties
    kinds = rng.integers(0, 5, n)
    return [
        (float(times[i]), EventKind(int(kinds[i])), f"payload-{i}") for i in range(n)
    ]


class TestEntrySurface:
    def test_entry_surface_matches_object_surface(self):
        queue = EventQueue()
        for time, kind, payload in _random_schedule(7, 50):
            queue.push(time, kind, payload)
        while queue:
            head = queue.peek_entry()
            event = queue.peek()
            assert (
                head[ENTRY_TIME],
                head[ENTRY_KIND],
                head[ENTRY_SEQ],
                head[ENTRY_PAYLOAD],
            ) == (event.time, event.kind, event.seq, event.payload)
            popped = queue.pop_entry()
            assert popped[:3] == head[:3] and popped[ENTRY_PAYLOAD] is head[ENTRY_PAYLOAD]
