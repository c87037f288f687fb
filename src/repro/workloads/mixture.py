"""Workload mixtures: several tenant workloads sharing one cache.

Production deployments rarely serve a single traffic class; a chatbot
tenant (short, bursty, heavy input+output reuse) typically shares the
serving fleet — and therefore the prefix cache — with agentic or batch
tenants (long contexts, purely-input reuse).  A mixture interleaves
component traces on a common timeline so cache policies can be stressed on
the *combination*: the regime where a recency-only policy lets one
tenant's burst evict another tenant's far more FLOP-efficient prefixes.

Sessions are re-identified with per-component offsets so downstream
consumers (engine, cluster router, analysis) see one coherent trace;
``metadata["components"]`` records the provenance of each id range.
"""

from __future__ import annotations

import copy
import heapq
from typing import Iterator, Sequence

from repro.workloads.trace import Trace, TraceSession, TraceStream

# Component session-id ranges are spaced this far apart; the mixture
# refuses a component session id outside [0, _ID_STRIDE) so ids can never
# collide (a nested mixture's ids are already offset).
_ID_STRIDE = 1_000_000


def _remap(session: TraceSession, offset: int, component: str) -> TraceSession:
    """``session`` under id ``offset + session_id``: a shallow copy, sharing
    the rounds, the token buffer and its resume anchors (both handles walk
    the same bytes), so mixing concatenates nothing again."""
    if not 0 <= session.session_id < _ID_STRIDE:
        raise ValueError(
            f"component {component!r} has session id {session.session_id}; "
            f"the mixture supports ids in [0, {_ID_STRIDE})"
        )
    remapped = copy.copy(session)
    remapped.session_id = offset + session.session_id
    return remapped


def mix_streams(
    streams: Sequence[TraceStream | Trace], name: str | None = None
) -> TraceStream:
    """Lazily interleave component traces on their shared timeline.

    Arrival times are kept as generated — components already place their
    sessions on an absolute clock, so mixing is a merge, not a reschedule:
    a heap merge over the components' session iterators, holding one
    pending session per component, in ``(arrival_time, session_id)``
    order.  Session ids are remapped to ``component_index * 1e6 +
    original_id``.  A component is a :class:`TraceStream` or a
    :class:`Trace` (both have ``iter_sessions``); the materialized
    mixture is ``mix_streams(...).materialize()``.

    Session ids are checked lazily: a component that yields an id outside
    ``[0, _ID_STRIDE)`` raises mid-iteration rather than up front (streams
    may not know their ids).
    """
    if not streams:
        raise ValueError("need at least one component stream")
    streams = list(streams)

    def factory() -> Iterator[TraceSession]:
        def component_iter(index: int, stream: TraceStream) -> Iterator[TraceSession]:
            offset = index * _ID_STRIDE
            for session in stream.iter_sessions():
                yield _remap(session, offset, stream.name)

        merged = heapq.merge(
            *(component_iter(i, s) for i, s in enumerate(streams)),
            key=lambda s: (s.arrival_time, s.session_id),
        )
        yield from merged

    known = [s.n_sessions for s in streams]
    return TraceStream(
        name=name or "+".join(s.name for s in streams),
        seed=streams[0].seed,
        factory=factory,
        n_sessions=sum(known) if all(n is not None for n in known) else None,
        metadata={
            "components": [
                {
                    "name": stream.name,
                    "seed": stream.seed,
                    "n_sessions": stream.n_sessions,
                    "session_id_offset": index * _ID_STRIDE,
                }
                for index, stream in enumerate(streams)
            ]
        },
    )


def component_of(trace: Trace, session_id: int) -> str:
    """Name of the mixture component a session id belongs to."""
    components = trace.metadata.get("components")
    if not components:
        raise ValueError(f"trace {trace.name!r} is not a mixture")
    index = session_id // _ID_STRIDE
    if not 0 <= index < len(components):
        raise KeyError(f"session id {session_id} outside any component range")
    return components[index]["name"]
