"""Ordering contract of the tuple-backed event queue.

The seed's ``Event`` was a ``dataclass(order=True)`` whose generated
comparison would fall through to the *payload* whenever two events tied on
``(time, kind, seq)`` — a latent crash (unorderable payloads) or, worse, a
silent ordering dependence on payload internals.  The queue heaps plain
tuples with a per-queue serial as a comparison firewall; these tests pin
that contract and reserved ``seq`` values.  (Pop order under heavy ties and
``peek_entry`` are pinned by ``test_kernel_properties.py::TestEventQueueOrdering``.)
"""

from __future__ import annotations

from repro.engine.events import ENTRY_PAYLOAD, EventKind, EventQueue


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
        assert queue.pop_entry()[ENTRY_PAYLOAD] is first
        assert queue.pop_entry()[ENTRY_PAYLOAD] is second


class TestReservedSeq:
    def test_explicit_seq_overrides_counter(self):
        queue = EventQueue()
        queue.push(0.0, EventKind.REQUEST_ARRIVAL, "auto-0")
        queue.push(0.0, EventKind.REQUEST_ARRIVAL, "reserved", seq=-5)
        queue.push(0.0, EventKind.REQUEST_ARRIVAL, "auto-1")
        # Reserved negative seqs sort before every auto-numbered push at
        # equal (time, kind) — the kernel's streaming-admission contract —
        # and must not consume the queue's own counter.
        assert [queue.pop_entry()[ENTRY_PAYLOAD] for _ in range(3)] == [
            "reserved",
            "auto-0",
            "auto-1",
        ]
