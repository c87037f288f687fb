"""Trace schema: sessions of multi-round requests with arrival timing.

A trace is the unit the experiment harness consumes.  Sessions arrive at
``arrival_time``; within a session, round ``k``'s request input is the full
accumulated context (all previous inputs and outputs) plus the round's new
input segment, and the next round arrives ``think_times[k+1]`` seconds after
round ``k``'s response completes (closed-loop per session).
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

from repro.core.tokens import TokenSeq


@dataclass(eq=False)
class TraceRound:
    """One request round: the newly appended input and the model's output.

    Rounds, sessions and traces compare by identity: their numpy fields
    have no single truth value.  Content equality is
    :meth:`Trace.content_fingerprint`.
    """

    new_input_tokens: np.ndarray
    output_tokens: np.ndarray

    def __post_init__(self) -> None:
        self.new_input_tokens = np.asarray(self.new_input_tokens, dtype=np.int32)
        self.output_tokens = np.asarray(self.output_tokens, dtype=np.int32)
        if len(self.new_input_tokens) == 0:
            raise ValueError("a round must append at least one input token")
        if len(self.output_tokens) == 0:
            raise ValueError("a round must produce at least one output token")


@dataclass(eq=False)
class TraceSession:
    """A chat session / agent trajectory: rounds plus think-time gaps.

    Construction joins the rounds once into the session's one interned
    :class:`TokenSeq` and replaces ``rounds`` with rounds whose arrays are
    read-only views of it: every token of the session has one home, and the
    arrays the caller passed stay the caller's (editing them afterwards
    reaches neither the rounds nor a handle).  The generators build through
    :meth:`_from_segments`, the same join without the checks their draws
    make true by construction.  Equality is identity (see
    :class:`TraceRound`).
    """

    session_id: int
    arrival_time: float
    rounds: list[TraceRound]
    think_times: list[float]

    def __post_init__(self) -> None:
        if not self.rounds:
            raise ValueError("session must contain at least one round")
        if len(self.think_times) != len(self.rounds):
            raise ValueError(
                f"need one think time per round (first is 0), got "
                f"{len(self.think_times)} for {len(self.rounds)} rounds"
            )
        if self.think_times[0] != 0.0:
            raise ValueError("think time before the first round must be 0")
        # NaN fails both bounds; a NaN or inf time would reach the kernel
        # as a NaN TTFT, a negative arrival as a clock running backwards.
        if not 0.0 <= self.arrival_time < math.inf:
            raise ValueError(
                f"arrival_time must be finite and non-negative, got {self.arrival_time!r}"
            )
        if not all(0.0 <= t < math.inf for t in self.think_times):
            raise ValueError(
                f"think_times must be finite and non-negative, got {self.think_times!r}"
            )
        # bytes.join reads each array's buffer as it lies, so every segment
        # must be C-contiguous int32 (a strided or int64 view is not).
        segments: list[np.ndarray] = []
        round_lengths: list[tuple[int, int]] = []
        for r in self.rounds:
            new_input = np.ascontiguousarray(r.new_input_tokens, dtype=np.int32)
            output = np.ascontiguousarray(r.output_tokens, dtype=np.int32)
            segments += (new_input, output)
            round_lengths.append((len(new_input), len(output)))
        self._join(segments, round_lengths)

    @classmethod
    def _from_segments(
        cls,
        session_id: int,
        arrival_time: float,
        segments: list[np.ndarray],
        round_lengths: list[tuple[int, int]],
        think_times: list[float],
    ) -> "TraceSession":
        """The generators' constructor: the session's tokens in order as
        C-contiguous int32 ``segments`` and each round's positive ``(new
        input, output)`` counts, unchecked (the draws make the checks true)."""
        session = cls.__new__(cls)
        session.session_id, session.arrival_time = session_id, arrival_time
        session.think_times = think_times
        session._join(segments, round_lengths)
        return session

    def _join(
        self, segments: list[np.ndarray], round_lengths: list[tuple[int, int]]
    ) -> None:
        """Write the segments once, into the session's one buffer, and make
        the rounds read-only views of it without re-running their checks."""
        self._history = TokenSeq.adopt(b"".join(segments))
        tokens = self._history.arr
        self.rounds, self._round_ends = [], []
        end = 0
        for n_input, n_output in round_lengths:
            start, input_end = end, end + n_input
            end = input_end + n_output
            view = TraceRound.__new__(TraceRound)
            view.new_input_tokens = tokens[start:input_end]
            view.output_tokens = tokens[input_end:end]
            self.rounds.append(view)
            self._round_ends.append((input_end, end))

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def interned_round(self, round_index: int) -> tuple[TokenSeq, TokenSeq]:
        """``(full_input, full_sequence)`` of a round as interned handles.

        Round ``k``'s input is the whole history through round ``k - 1`` plus
        its new segment, so every round is a prefix of the session's last
        full sequence: both handles are :meth:`TokenSeq.prefix` views of the
        buffer built at construction (no bytes of their own).
        """
        input_end, full_end = self._round_ends[round_index]
        return self._history.prefix(input_end), self._history.prefix(full_end)

    def full_input(self, round_index: int) -> np.ndarray:
        """Complete input of round ``round_index`` (accumulated context + new)."""
        return self.interned_round(round_index)[0].arr

    def full_sequence(self, round_index: int) -> np.ndarray:
        """Input of round ``round_index`` plus its output."""
        return self.interned_round(round_index)[1].arr

    def input_lengths(self) -> list[int]:
        """Full-input token count of every round (the Fig. 6 input metric)."""
        lengths = []
        context = 0
        for r in self.rounds:
            lengths.append(context + len(r.new_input_tokens))
            context += len(r.new_input_tokens) + len(r.output_tokens)
        return lengths

    def output_lengths(self) -> list[int]:
        return [len(r.output_tokens) for r in self.rounds]


@dataclass(eq=False)
class Trace:
    """A full workload trace: many sessions plus generation metadata.

    Equality is identity; compare content by :meth:`content_fingerprint`.
    """

    name: str
    seed: int
    sessions: list[TraceSession]
    metadata: dict = field(default_factory=dict)
    _fingerprint: Optional[int] = field(default=None, init=False, repr=False)

    @property
    def n_sessions(self) -> int:
        return len(self.sessions)

    @property
    def n_requests(self) -> int:
        return sum(s.n_rounds for s in self.sessions)

    def input_lengths(self) -> np.ndarray:
        """All requests' full-input lengths (Fig. 6 input distribution)."""
        values: list[int] = []
        for session in self.sessions:
            values.extend(session.input_lengths())
        return np.asarray(values, dtype=np.int64)

    def output_lengths(self) -> np.ndarray:
        values: list[int] = []
        for session in self.sessions:
            values.extend(session.output_lengths())
        return np.asarray(values, dtype=np.int64)

    @property
    def total_input_tokens(self) -> int:
        return int(self.input_lengths().sum())

    def iter_sessions(self) -> Iterator[TraceSession]:
        """Sessions in arrival order (stable: ties keep their list order).

        The order the engine admits them in, whatever order the list is in.
        """
        return iter(sorted(self.sessions, key=lambda s: s.arrival_time))

    def nominal_log(self) -> list[tuple]:
        """The cache log :func:`~repro.core.interfaces.replay_log` serves:
        each request's ``("begin", key, input, t)``, then its ``("commit",
        key, full_sequence, t)``, keyed ``(session_id, round)`` and ordered by
        ``t``, session and round.  ``t`` is nominal: arrival plus think times,
        zero service latency (the serving simulator times requests itself)."""
        requests = []
        for session in self.sessions:
            t = session.arrival_time
            for k in range(session.n_rounds):
                t += session.think_times[k]
                requests.append((t, (session.session_id, k), session))
        requests.sort(key=lambda r: r[:2])
        log = []
        for t, key, session in requests:
            log.append(("begin", key, session.full_input(key[1]), t))
            log.append(("commit", key, session.full_sequence(key[1]), t))
        return log

    def content_fingerprint(self) -> int:
        """CRC32 over the trace's full content (ids, timing, tokens).

        Computed once and memoized; traces are treated as immutable after
        construction.  O(total tokens), but the ``tobytes`` CRC runs at
        memory bandwidth — negligible next to one simulation of the same
        trace, which is the only context that asks for it.
        """
        if self._fingerprint is None:
            crc = 0
            for session in self.sessions:
                header = np.asarray(
                    [float(session.session_id), session.arrival_time]
                    + list(session.think_times),
                    dtype=np.float64,
                )
                crc = zlib.crc32(header.tobytes(), crc)
                for r in session.rounds:
                    crc = zlib.crc32(r.new_input_tokens.tobytes(), crc)
                    crc = zlib.crc32(r.output_tokens.tobytes(), crc)
            self._fingerprint = crc
        return self._fingerprint

    def cache_key(self) -> tuple:
        """Hashable process-independent identity of the trace.

        Unlike ``id(trace)``, this survives pickling across process-pool
        workers and cannot collide after garbage collection.  The content
        fingerprint makes the key honest even for hand-built or
        file-loaded traces that reuse a generated trace's header: two
        traces only share a key if their sessions match byte for byte.
        """
        return (
            self.name,
            self.seed,
            self.n_sessions,
            json.dumps(self.metadata, sort_keys=True, default=str),
            self.content_fingerprint(),
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_jsonl(self, path: str | Path) -> None:
        """Write the trace as one JSON header line plus one line per session."""
        path = Path(path)
        with path.open("w") as fh:
            fh.write(json.dumps(_header_record(self.name, self.seed, self.metadata)) + "\n")
            for session in self.sessions:
                fh.write(json.dumps(_session_to_record(session)) + "\n")

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "Trace":
        """Load a trace written by :meth:`to_jsonl`."""
        path = Path(path)
        header = _read_header(path)
        return cls(
            name=header["name"],
            seed=header["seed"],
            sessions=list(_read_sessions(path)),
            metadata=header.get("metadata", {}),
        )


def _header_record(name: str, seed: int, metadata: dict) -> dict:
    return {"kind": "trace-header", "name": name, "seed": seed, "metadata": metadata}


def _session_to_record(session: TraceSession) -> dict:
    return {
        "session_id": session.session_id,
        "arrival_time": session.arrival_time,
        "think_times": list(session.think_times),
        "rounds": [
            {
                "input": r.new_input_tokens.tolist(),
                "output": r.output_tokens.tolist(),
            }
            for r in session.rounds
        ],
    }


def _seconds(value: object, what: str) -> float:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value < 0
    ):
        raise ValueError(f"{what} must be a finite non-negative number, got {value!r}")
    return value


def _token_array(value: object, what: str) -> np.ndarray:
    arr = np.asarray(value)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ValueError(f"{what} must be a flat list of integer token ids")
    tokens = arr.astype(np.int32)
    if not np.array_equal(tokens, arr):
        raise ValueError(f"{what} holds a token id outside int32")
    return tokens


def _session_from_record(record: dict) -> TraceSession:
    session_id = record["session_id"]
    if isinstance(session_id, bool) or not isinstance(session_id, int):
        raise ValueError(f"session_id must be an integer, got {session_id!r}")
    rounds = [
        TraceRound(
            new_input_tokens=_token_array(r["input"], "a round's input"),
            output_tokens=_token_array(r["output"], "a round's output"),
        )
        for r in record["rounds"]
    ]
    return TraceSession(
        session_id=session_id,
        arrival_time=_seconds(record["arrival_time"], "arrival_time"),
        rounds=rounds,
        think_times=[_seconds(t, "a think time") for t in record["think_times"]],
    )


def _read_header(path: Path) -> dict:
    """The header line of a trace file, checked for what the loaders read."""
    with path.open() as fh:
        line = fh.readline()
    try:
        header = json.loads(line)
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("kind") != "trace-header":
        raise ValueError(f"{path} is not a trace file (bad header)")
    for key in ("name", "seed"):
        if key not in header:
            raise ValueError(f"{path}:1: trace header lacks {key!r}")
    return header


def _read_sessions(path: Path) -> Iterator[TraceSession]:
    """The sessions of a trace file, one line at a time; whatever is wrong
    with a line — not JSON, a field missing or of the wrong kind, a session
    id already used — is a ``ValueError`` naming the file and the line."""
    seen: set[int] = set()
    with path.open() as fh:
        fh.readline()  # header
        for lineno, line in enumerate(fh, start=2):
            try:
                session = _session_from_record(json.loads(line))
                if session.session_id in seen:
                    raise ValueError(f"session_id {session.session_id} is used twice")
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: record lacks {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            seen.add(session.session_id)
            yield session


class TraceStream:
    """A trace whose sessions are produced lazily, in arrival order.

    Where :class:`Trace` materializes every session up front, a stream
    holds only a *recipe*: ``factory`` returns a fresh session iterator
    each time, so the stream can be consumed any number of times and each
    pass is deterministic (generators must derive all randomness from
    their own seed material, never from shared mutable state).  The
    engine pulls one session at a time, so a million-session trace replays
    with memory proportional to the number of *concurrently active*
    sessions, not the trace length.

    Contract: sessions must arrive with non-decreasing ``arrival_time``
    (:meth:`iter_sessions` enforces this) — the engine merges the stream
    into its event queue and cannot travel back in time.  Use
    :meth:`materialize` to collapse a small stream into a plain
    :class:`Trace` (analysis helpers, golden fixtures).
    """

    def __init__(
        self,
        name: str,
        seed: int,
        factory: Callable[[], Iterator[TraceSession]],
        *,
        n_sessions: Optional[int] = None,
        metadata: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.seed = seed
        self._factory = factory
        self.n_sessions = n_sessions
        self.metadata = dict(metadata) if metadata else {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        size = "?" if self.n_sessions is None else str(self.n_sessions)
        return f"TraceStream(name={self.name!r}, seed={self.seed}, n_sessions={size})"

    def cache_key(self) -> Optional[tuple]:
        """Hashable recipe identity, or ``None`` when the stream has none.

        Streams cannot be content-fingerprinted without consuming a full
        pass, so the key is the recipe's identity — valid only when the
        recipe is actually identified: generated streams embed their
        generation params in ``metadata``.  An anonymous stream (no
        metadata, unknown length — e.g. a bare factory) returns ``None``
        and callers must fall back to object identity rather than risk
        aliasing two different recipes that share a name and seed.
        """
        if not self.metadata and self.n_sessions is None:
            return None
        return (
            "stream",
            self.name,
            self.seed,
            self.n_sessions,
            json.dumps(self.metadata, sort_keys=True, default=str),
        )

    def iter_sessions(self) -> Iterator[TraceSession]:
        """A fresh pass over the sessions, validating arrival monotonicity."""
        last = float("-inf")
        for session in self._factory():
            if session.arrival_time < last:
                raise ValueError(
                    f"stream {self.name!r} yielded arrival_time "
                    f"{session.arrival_time} after {last}; streams must be "
                    "sorted by arrival time"
                )
            last = session.arrival_time
            yield session

    __iter__ = iter_sessions

    def materialize(self) -> Trace:
        """Collapse the stream into an in-memory :class:`Trace`."""
        return Trace(
            name=self.name,
            seed=self.seed,
            sessions=list(self.iter_sessions()),
            metadata=dict(self.metadata),
        )

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceStream":
        """View an in-memory trace as a stream (same order the engine uses)."""
        return cls(
            name=trace.name,
            seed=trace.seed,
            factory=trace.iter_sessions,
            n_sessions=trace.n_sessions,
            metadata=dict(trace.metadata),
        )

    # ------------------------------------------------------------------
    # Serialization (single-pass; never holds more than one session)
    # ------------------------------------------------------------------
    def to_jsonl(self, path: str | Path) -> int:
        """Stream the sessions to a trace JSONL file; returns sessions written."""
        path = Path(path)
        written = 0
        with path.open("w") as fh:
            fh.write(json.dumps(_header_record(self.name, self.seed, self.metadata)) + "\n")
            for session in self.iter_sessions():
                fh.write(json.dumps(_session_to_record(session)) + "\n")
                written += 1
        return written

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "TraceStream":
        """Lazily read a trace JSONL file (one session in memory at a time)."""
        path = Path(path)
        header = _read_header(path)
        return cls(
            name=header["name"],
            seed=header["seed"],
            factory=lambda: _read_sessions(path),
            metadata=header.get("metadata", {}),
        )
