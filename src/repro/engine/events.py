"""Shared discrete-event scaffolding for the serving simulators.

Every engine replays traces over the one loop in
:mod:`repro.engine.kernel`, which dispatches on the six :class:`EventKind`
values; the priority queue's entry layout and its tie-break rules live here.

The queue is tuple-backed: one heap entry is a plain
``(time, kind, seq, serial, payload)`` tuple, so scheduling an event
allocates no per-event object and popping one costs a single ``heappop``.
``serial`` is a per-queue strictly increasing counter appended purely as a
comparison firewall — it guarantees tuple comparison never reaches the
payload, while leaving the public ``(time, kind, seq)`` total order
untouched for every queue whose seq numbers are unique (which per-queue
counters guarantee).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any, Optional

#: Heap-entry layout: indices into one entry tuple.
ENTRY_TIME = 0
ENTRY_KIND = 1
ENTRY_SEQ = 2
ENTRY_SERIAL = 3
ENTRY_PAYLOAD = 4


class EventKind(enum.IntEnum):
    """Event types of the serving simulators' discrete-event loops.

    Enum order is the tie-break at equal timestamps: completions and
    prefill-done fire before new arrivals so freshly freed capacity and
    freshly admitted states are visible to same-instant arrivals.
    Cross-replica transfer completions and cluster control events (replica
    fail/drain/join) sort after arrivals — a transfer or topology change
    stamped at time ``t`` takes effect only once every request arriving at
    ``t`` has been routed against the pre-change cluster state.
    ``DIRECTORY_SYNC`` (sharded-directory gossip flushes) sorts last of
    all: directory updates stamped at ``t`` become visible only after
    every same-instant arrival has been routed against the stale view —
    the pessimistic reading of "bounded staleness".
    """

    PREFILL_DONE = 0
    REQUEST_COMPLETE = 1
    REQUEST_ARRIVAL = 2
    TRANSFER_DONE = 3
    CONTROL = 4
    DIRECTORY_SYNC = 5


class EventQueue:
    """A deterministic tuple-backed min-heap ordered by ``(time, kind, seq)``.

    The per-queue sequence number makes ordering total (and FIFO among
    same-time same-kind events), so simulator runs are reproducible
    regardless of payload contents.

    Each queue owns its counter, starting at zero: tie-break order depends
    only on this queue's push history, never on how many events any other
    queue (or a previous run reusing an engine-held counter) has issued.

    :meth:`pop_entry` / :meth:`peek_entry` return the raw heap tuples, so a
    pop allocates nothing per event (see the ``ENTRY_*`` index constants).
    """

    __slots__ = ("_heap", "_seq", "_serial")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, int, Any]] = []
        self._seq = itertools.count()
        self._serial = itertools.count()

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self, time: float, kind: EventKind, payload: Any, seq: Optional[int] = None
    ) -> None:
        """Schedule an event; ``seq`` overrides the queue's own counter.

        Explicit sequence numbers exist for the kernel's streaming
        admission path: session arrivals pulled lazily from a
        :class:`~repro.workloads.trace.TraceStream` carry reserved
        (negative) seqs so that, at equal ``(time, kind)``, they sort
        exactly where the bulk path's up-front pushes would have put them
        — before every event pushed during the run, in stream order.
        """
        heapq.heappush(
            self._heap,
            (
                time,
                int(kind),
                next(self._seq) if seq is None else seq,
                next(self._serial),
                payload,
            ),
        )

    def pop_entry(self) -> tuple[float, int, int, int, Any]:
        """Pop the raw ``(time, kind, seq, serial, payload)`` heap entry."""
        return heapq.heappop(self._heap)

    def peek_entry(self) -> tuple[float, int, int, int, Any]:
        """The raw head entry, without removing it (queue must be non-empty)."""
        return self._heap[0]
