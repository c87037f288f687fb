"""Common cache interfaces shared by Marconi and the baselines.

The cache surface is transactional: every request opens a
:class:`RequestSession` against the cache and closes it exactly once.

1. :meth:`PrefixCache.begin` at prefill start — performs the lookup
   (how many input tokens can skip prefill) plus any prefill-time
   bookkeeping the policy requires (Marconi inserts the input path, pins
   it, and plans branch-point checkpoints here) and returns the open
   session.
2. :meth:`RequestSession.commit` at decode end — hands the full sequence
   (input + generated output) to the cache for admission and closes the
   session.
3. :meth:`RequestSession.abort` on cancellation/failure — releases the
   lookup-time pins and rolls back the speculative input insertion, so a
   request that never finishes cannot leak pinned state.

Sessions are context managers: ``with cache.begin(tokens, now) as s: ...``
aborts automatically unless the body committed.  ``begin`` and
``commit | abort`` are the cache's only doors: nothing is admitted
outside a session.  :func:`replay_log` serves a whole cache log through
them, one session per begin.
"""

from __future__ import annotations

import abc
import enum
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Protocol, Sequence
from typing import runtime_checkable

import numpy as np

from repro.core import sink
from repro.core.stats import CacheStats
from repro.core.tokens import canonical_token_array

#: A time source: every cache/serving timestamp comes from one of these.
#: Offline replays inject the simulation kernel's virtual clock; the live
#: gateway injects ``time.monotonic``; components that only need *ordering*
#: (not durations) default to :func:`monotonic_counter`.
Clock = Callable[[], float]


def monotonic_counter(start: float = 0.0, step: float = 1.0) -> Clock:
    """A fake :data:`Clock` that ticks ``step`` on every call.

    Timestamps only order cache accesses (recency, eviction ranks), so a
    counter is a valid clock wherever real durations are not observed.
    The returned callable is self-contained state — two counters never
    interfere — which makes it a safe per-instance default.
    """
    state = {"now": float(start)}

    def tick() -> float:
        state["now"] += step
        return state["now"]

    return tick


@dataclass(slots=True)
class LookupResult:
    """Outcome of a prefill-time cache lookup.

    Attributes
    ----------
    hit_tokens:
        Number of leading input tokens whose prefill is skipped.
    input_tokens:
        Total number of input tokens in the request.
    reused_bytes:
        Bytes of cached state fetched to serve the hit (drives the fetch
        term of the latency model).
    reused_secondary_bytes:
        Of ``reused_bytes``, the portion fetched from a second-tier store
        (zero for single-tier caches); priced at the latency model's
        slower secondary bandwidth.
    checkpoint_positions:
        Prefix lengths (in tokens) at which the policy asks the engine to
        materialize recurrent states during this prefill (Marconi's
        speculative-insertion branch points).  Empty for baselines.
    state_payload:
        When the cache stores real model states (``store_states=True``),
        the payload checkpointed at the hit position; otherwise ``None``.
    """

    hit_tokens: int
    input_tokens: int
    reused_bytes: int = 0
    reused_secondary_bytes: int = 0
    checkpoint_positions: list[int] = field(default_factory=list)
    state_payload: Any = None

    @property
    def hit_rate(self) -> float:
        """Fraction of this request's input tokens served from cache."""
        if self.input_tokens == 0:
            return 0.0
        return self.hit_tokens / self.input_tokens

    @property
    def is_hit(self) -> bool:
        return self.hit_tokens > 0


@dataclass(slots=True)
class AdmitResult:
    """Outcome of admitting a finished sequence into the cache."""

    admitted_bytes: int = 0
    evicted_bytes: int = 0
    evicted_entries: int = 0
    rejected: bool = False


class SessionState(enum.Enum):
    """Lifecycle of a :class:`RequestSession`.

    ``OPEN`` → ``COMMITTED`` (decode finished, sequence admitted) or
    ``ABORTED`` (request cancelled/failed, lookup-time state rolled back).
    ``DETACHED`` marks sessions orphaned by :meth:`PrefixCache.reset`:
    their cache-side state no longer exists, so both closing verbs become
    inert (committing raises, aborting is a no-op).
    """

    OPEN = "open"
    COMMITTED = "committed"
    ABORTED = "aborted"
    DETACHED = "detached"


class RequestSession:
    """One request's transactional window against a :class:`PrefixCache`.

    Created by :meth:`PrefixCache.begin`; closed exactly once by
    :meth:`commit` or :meth:`abort`.  The session exposes the lookup
    outcome (``hit_tokens``, ``reused_bytes``, ``checkpoint_positions``,
    ...) and owns whatever per-request state the cache pinned at begin
    time — subclasses add policy-specific fields (Marconi keeps the pinned
    path and speculative-insert bookkeeping here).

    Leak safety: sessions are context managers (``__exit__`` aborts if the
    body did not commit) and garbage collection of a still-open session
    aborts it as a last resort, so dropped sessions cannot pin cache state
    forever.
    """

    __slots__ = (
        "_cache",
        "result",
        "_state",
        "admit_result",
        "__weakref__",  # caches track live sessions in a WeakSet
    )

    def __init__(self, cache: "PrefixCache", result: Optional[LookupResult] = None):
        self._cache = cache
        self.result = result
        self._state = SessionState.OPEN
        self.admit_result: Optional[AdmitResult] = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def state(self) -> SessionState:
        return self._state

    @property
    def is_open(self) -> bool:
        return self._state is SessionState.OPEN

    @property
    def is_committed(self) -> bool:
        return self._state is SessionState.COMMITTED

    @property
    def is_aborted(self) -> bool:
        return self._state is SessionState.ABORTED

    # ------------------------------------------------------------------
    # Lookup-outcome views
    # ------------------------------------------------------------------
    @property
    def hit_tokens(self) -> int:
        return self.result.hit_tokens

    @property
    def input_tokens(self) -> int:
        return self.result.input_tokens

    @property
    def reused_bytes(self) -> int:
        return self.result.reused_bytes

    @property
    def reused_secondary_bytes(self) -> int:
        return self.result.reused_secondary_bytes

    @property
    def checkpoint_positions(self) -> list[int]:
        return self.result.checkpoint_positions

    @property
    def state_payload(self) -> Any:
        return self.result.state_payload

    @property
    def hit_rate(self) -> float:
        return self.result.hit_rate

    @property
    def is_hit(self) -> bool:
        return self.result.is_hit

    # ------------------------------------------------------------------
    # Lifecycle verbs
    # ------------------------------------------------------------------
    def attach_branch_state(self, position: int, payload: Any) -> None:
        """Attach a materialized model state to this request's branch
        checkpoint at ``position`` (only meaningful while open)."""
        if self._state is not SessionState.OPEN:
            raise ValueError(
                f"cannot attach state to a {self._state.value} session"
            )
        self._cache._attach_session(self, position, payload)

    def commit(
        self, full_tokens: np.ndarray, now: float, state_payload: Any = None
    ) -> AdmitResult:
        """Admit the finished sequence (input + output) and close the session."""
        if self._state is SessionState.COMMITTED:
            raise ValueError("session was already admitted (commit runs once)")
        if self._state is SessionState.ABORTED:
            raise ValueError("cannot commit an aborted session")
        if self._state is SessionState.DETACHED:
            raise ValueError("cannot commit a session detached by cache.reset()")
        cache = self._cache
        cache._mutating = True
        try:
            result = cache._commit_session(self, full_tokens, now, state_payload)
        finally:
            cache._mutating = False
            cache._drain_deferred_aborts()
        self._state = SessionState.COMMITTED
        self.admit_result = result
        cache._session_closed(self)
        if sink.SINK is not None:
            sink.SINK("commit", cache, self, full_tokens, now)
        return result

    def abort(self) -> None:
        """Release lookup-time pins and roll back the speculative input
        insertion.  Idempotent; a no-op on already-closed sessions."""
        if self._state is not SessionState.OPEN:
            return
        cache = self._cache
        cache._mutating = True
        try:
            cache._abort_session(self)
        finally:
            cache._mutating = False
            cache._drain_deferred_aborts()
        self._state = SessionState.ABORTED
        cache._session_closed(self)
        if sink.SINK is not None:
            sink.SINK("abort", cache, self)

    def _detach(self) -> None:
        """Orphan the session (cache.reset() dropped its state wholesale)."""
        if self._state is SessionState.OPEN:
            self._state = SessionState.DETACHED

    # ------------------------------------------------------------------
    # Context manager + GC safety net
    # ------------------------------------------------------------------
    def __enter__(self) -> "RequestSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._state is SessionState.OPEN:
            self.abort()
        return False

    def __del__(self) -> None:
        try:
            if self._state is SessionState.OPEN:
                self._cache._on_session_gc(self)
        except Exception:  # pragma: no cover - interpreter-teardown guard
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self._state.value} "
            f"hit={self.result.hit_tokens if self.result else '?'}>"
        )


class PrefixCache(abc.ABC):
    """Abstract prefix cache driven by the serving engine.

    Concrete caches implement the session hooks (``_begin_session``,
    ``_commit_session`` and, when they pin state between the phases,
    ``_abort_session``); the public surface — :meth:`begin` and
    :meth:`begin_many` — is shared and final.
    """

    # Class-level defaults so subclasses need no cooperative __init__.
    _open_sessions: int = 0
    _live_sessions: Optional["weakref.WeakSet[RequestSession]"] = None
    _mutating: bool = False  # True while a cache operation is in progress
    _draining: bool = False  # reentrancy guard for the deferred-abort drain
    _deferred_aborts: Optional[list["RequestSession"]] = None
    _external_tree_observers: Optional[list[Any]] = None

    # ------------------------------------------------------------------
    # Tree-observer export hooks (router directories, external indexes)
    # ------------------------------------------------------------------
    def add_tree_observer(self, observer: Any) -> bool:
        """Attach an external observer to this cache's radix tree.

        Returns True when the cache exposes an observable tree; False for
        tree-less caches (block stores), whose callers must fall back to
        probing.  Registered observers survive tree replacement: any code
        path that swaps in a new tree (``reset()``, persistence reload)
        must route through :meth:`_reattach_tree_observers`, which re-adds
        every registered observer and notifies it via its optional
        ``on_tree_attached(tree)`` callback so it can resynchronize.
        """
        tree = getattr(self, "tree", None)
        add = getattr(tree, "add_observer", None)
        if add is None:
            return False
        if self._external_tree_observers is None:
            self._external_tree_observers = []
        self._external_tree_observers.append(observer)
        add(observer)
        return True

    def remove_tree_observer(self, observer: Any) -> None:
        """Detach an observer registered with :meth:`add_tree_observer`."""
        if self._external_tree_observers is not None:
            try:
                self._external_tree_observers.remove(observer)
            except ValueError:
                pass
        tree = getattr(self, "tree", None)
        remove = getattr(tree, "remove_observer", None)
        if remove is not None:
            remove(observer)

    def _reattach_tree_observers(self, tree: Any) -> None:
        """Re-bind registered external observers to a replacement tree."""
        if not self._external_tree_observers:
            return
        for observer in self._external_tree_observers:
            tree.add_observer(observer)
            hook = getattr(observer, "on_tree_attached", None)
            if hook is not None:
                hook(tree)

    # ------------------------------------------------------------------
    # Session hooks (per-policy)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _begin_session(self, tokens: np.ndarray, now: float) -> RequestSession:
        """Perform the prefill-time lookup/bookkeeping; return the open
        session with its :class:`LookupResult` attached."""

    @abc.abstractmethod
    def _commit_session(
        self,
        session: RequestSession,
        tokens: np.ndarray,
        now: float,
        state_payload: Any = None,
    ) -> AdmitResult:
        """Admit the finished sequence of the request ``session`` opened."""

    def _abort_session(self, session: RequestSession) -> None:
        """Release per-request state pinned at begin time.  Default no-op:
        baselines pin nothing between the two phases."""

    def _attach_session(
        self, session: RequestSession, position: int, payload: Any
    ) -> None:
        """Attach a materialized branch-checkpoint state.  Caches without
        branch checkpoints reject every position."""
        raise ValueError(f"no pending branch checkpoint at position {position}")

    # ------------------------------------------------------------------
    # Transactional surface
    # ------------------------------------------------------------------
    def begin(self, tokens: np.ndarray, now: float) -> RequestSession:
        """Open a request session: lookup + prefill-time bookkeeping."""
        self._mutating = True
        try:
            session = self._begin_session(tokens, now)
        finally:
            self._mutating = False
            self._drain_deferred_aborts()
        self._register_session(session)
        if sink.SINK is not None:
            sink.SINK("begin", self, session, tokens, now)
        return session

    def begin_many(
        self, token_seqs: Sequence[np.ndarray], now: float
    ) -> list[RequestSession]:
        """Open one session per input sequence, in order, at time ``now``.

        Batch entry point for the simulation kernel's scheduler steps: the
        engine starts every request admitted in one step through a single
        call.  The batch is all-or-nothing: if any begin fails, the
        sessions already opened are aborted before the error propagates,
        so a bad request cannot leak its batchmates' pins.
        """
        sessions: list[RequestSession] = []
        try:
            for tokens in token_seqs:
                sessions.append(self.begin(tokens, now))
        except BaseException:
            for session in sessions:
                session.abort()
            raise
        return sessions

    @property
    def open_sessions(self) -> int:
        """Sessions begun and not yet committed/aborted (in-flight requests)."""
        return self._open_sessions

    def _register_session(self, session: RequestSession) -> None:
        if self._live_sessions is None:
            self._live_sessions = weakref.WeakSet()
        self._live_sessions.add(session)
        self._open_sessions += 1

    def _session_closed(self, session: RequestSession) -> None:
        self._open_sessions = max(0, self._open_sessions - 1)
        if self._live_sessions is not None:
            self._live_sessions.discard(session)

    def _on_session_gc(self, session: RequestSession) -> None:
        """GC safety net for a dropped open session.

        Aborting performs structural rollback, which must not reenter a
        cache operation already on the stack (the cyclic GC can fire during
        any allocation, including mid-``insert``).  When the cache is
        quiescent the abort runs inline; otherwise the session is
        resurrected onto a deferred list drained at the next begin/commit.
        """
        if self._mutating:
            if self._deferred_aborts is None:
                self._deferred_aborts = []
            self._deferred_aborts.append(session)
        else:
            session.abort()

    def _drain_deferred_aborts(self) -> None:
        """Abort sessions parked by :meth:`_on_session_gc`.

        Runs at the end of every cache operation (the only windows in
        which deferral can happen), so stale pins cannot outlive the
        operation whose GC pause parked them.  Guarded against reentry:
        the drain's own aborts drain nothing recursively.
        """
        if self._draining:
            return
        self._draining = True
        try:
            while self._deferred_aborts:
                self._deferred_aborts.pop().abort()
        finally:
            self._draining = False

    def detach_open_sessions(self) -> None:
        """Orphan every open session (the close-on-reset safety net).

        Called by ``reset()`` implementations: the cache state the sessions
        pinned is being dropped wholesale, so aborting them against the new
        state would corrupt accounting — instead they become inert.
        """
        if self._live_sessions is not None:
            for session in list(self._live_sessions):
                session._detach()
            self._live_sessions.clear()
        if self._deferred_aborts:
            for session in self._deferred_aborts:
                session._detach()
            self._deferred_aborts.clear()
        self._open_sessions = 0

    # ------------------------------------------------------------------
    # Capacity / accounting surface
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def capacity_bytes(self) -> int:
        """Total cache capacity in bytes."""

    @property
    @abc.abstractmethod
    def used_bytes(self) -> int:
        """Bytes currently occupied by cached states."""

    @property
    @abc.abstractmethod
    def stats(self) -> CacheStats:
        """Aggregate counters for this cache instance."""

    def check_integrity(self) -> None:
        """Raise ``AssertionError`` unless ``0 <= used_bytes <= capacity_bytes``.

        A subclass adds its own clauses after ``super()``.  The check scans
        the cache, so callers run it where they choose, off the request path."""
        assert 0 <= self.used_bytes <= self.capacity_bytes, "bytes outside capacity"

    @abc.abstractmethod
    def reset(self) -> None:
        """Drop all cached state and zero the counters.

        Implementations must also call :meth:`detach_open_sessions` so
        outstanding sessions cannot mutate the rebuilt state.
        """

    # ------------------------------------------------------------------
    # Shared conveniences
    # ------------------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        """Capacity currently unoccupied."""
        return self.capacity_bytes - self.used_bytes

    @property
    def utilization(self) -> float:
        """Fraction of capacity in use."""
        if self.capacity_bytes == 0:
            return 0.0
        return self.used_bytes / self.capacity_bytes


@runtime_checkable
class CacheProtocol(Protocol):
    """Structural type the serving engines require of any cache.

    The one runtime-checkable source of truth: the session API plus
    capacity accounting.
    """

    def begin(self, tokens: np.ndarray, now: float) -> RequestSession: ...

    def begin_many(
        self, token_seqs: Sequence[np.ndarray], now: float
    ) -> list[RequestSession]: ...

    @property
    def open_sessions(self) -> int: ...

    @property
    def capacity_bytes(self) -> int: ...

    @property
    def used_bytes(self) -> int: ...


def replay_log(cache: CacheProtocol, log: Iterable[Sequence]) -> list[int]:
    """Serve a cache log in order and return each begin's hit tokens.

    ``("begin", key, input, now)`` opens a session under ``key``;
    ``("commit", key, full, now)`` and ``("abort", key)`` close it (its
    writers: ``docs/architecture.md``, "Replaying a log").  A session the
    log leaves open, or holds when the replay raises, is aborted.  Rates
    are the cache's ``stats``.
    """
    sessions, hits = {}, []
    try:
        for event, key, *args in log:
            if event == "begin":
                sessions[key] = session = cache.begin(*args)
                hits.append(session.hit_tokens)
            elif event == "commit":
                sessions[key].commit(*args)
                del sessions[key]
            elif event == "abort":
                sessions.pop(key).abort()
            else:
                raise ValueError(f"unknown log event {event!r} under key {key!r}")
    finally:
        for session in sessions.values():
            session.abort()
    return hits


def as_token_array(tokens: Any) -> np.ndarray:
    """Coerce ``tokens`` (ints, ndarray, or ``TokenSeq``) to a 1-D int32 array.

    All caches operate on int32 token IDs; accepting lists keeps the public
    API ergonomic for examples and tests.  Interned
    :class:`~repro.core.tokens.TokenSeq` handles unwrap to their canonical
    array, and already-canonical arrays pass through without copying.
    """
    return canonical_token_array(tokens)
