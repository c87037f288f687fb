"""Per-replica schedulers the simulation kernel dispatches to.

The kernel (:mod:`repro.engine.kernel`) is a clock, an event queue and a
dispatch table; what runs when on one replica is decided here.
:class:`ReplicaScheduler` is the whole contract between the two, in both
directions: the members a scheduler must offer the kernel, and — listed
once, in its docstring — the kernel members a scheduler may touch.

* :class:`ContinuousBatchingScheduler` — FCFS prefill-granularity batching
  over ``max_running`` slots (the serving engine and the cluster
  simulator);
* :class:`TokenBatchingScheduler` — Sarathi-style iteration-level chunked
  prefill (the iteration engine).
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.core.interfaces import RequestSession
from repro.engine.events import EventKind
from repro.engine.request import EngineRequest
from repro.engine.results import RequestRecord
from repro.engine.steering import SplitSpec, split_prefill_seconds
from repro.models.flops import prefill_flops_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.kernel import SimulationKernel


class ReplicaScheduler(abc.ABC):
    """Per-replica scheduling policy plugged into the kernel.

    **What the kernel calls.**  Arrivals routed to this replica go to
    :meth:`enqueue`; every ``PREFILL_DONE`` / ``REQUEST_COMPLETE`` event
    comes back to :meth:`on_step_done` of the scheduler named by its
    payload's ``replica`` field (payloads that stand for one request also
    expose it as ``request``).  After an arrival and after a
    ``PREFILL_DONE`` the kernel samples :attr:`queue_depth` /
    :attr:`n_running` — the same two numbers routers see as load — so a
    ``REQUEST_COMPLETE`` (the end of a background decode) must change
    neither.  :meth:`overlap` and :meth:`fail` are what split steering and
    failover need from *any* scheduler; both have a refusing default.

    **What a scheduler may touch of the kernel** — this list is the whole
    surface, all public, and ``tests/test_kernel_properties.py`` fails on
    any ``kernel._…`` access in this module:

    * ``kernel.model``, ``kernel.latency``, ``kernel.caches[replica]`` —
      what to price with and the cache to ``begin`` sessions on (at
      service start, never at arrival: reused state must exist then);
    * ``kernel.events.push(time, kind, payload)`` — the only way to
      advance work (never pop);
    * ``kernel.results[replica].records`` — written through :meth:`emit`,
      the one place a :class:`RequestRecord` is built;
    * ``kernel.busy_seconds[replica]`` — executor-occupied seconds;
    * ``kernel.steering`` — the run's telemetry, handed to
      :func:`~repro.engine.steering.split_prefill_seconds`;
    * ``kernel.finish_request(request, session, now)`` — commit and
      schedule the session's next round; every session a scheduler opens
      is closed exactly once through it (or aborted in :meth:`fail`);
    * ``kernel.schedule_next_round(request, now)`` — the closed loop alone,
      for a decode whose replica died under it;
    * ``kernel.drain_arrivals_upto(now, replica)`` — admit arrivals tying
      with a step boundary before deciding the next step (``replica`` is
      the caller's own, whose load the kernel re-reads first).
    """

    #: Whether :meth:`fail` is implemented.  A kernel given a scenario
    #: refuses, before its first event, a scheduler that cannot fail over.
    can_fail = False

    def __init__(self, kernel: "SimulationKernel", replica: int) -> None:
        self.kernel = kernel
        self.replica = replica
        # Per-run bindings: schedulers are built after the run's queue and
        # results exist (and, for a joined replica, after its cache does).
        self.cache = kernel.caches[replica]
        self._push = kernel.events.push
        self._records = kernel.results[replica].records
        self._flops = prefill_flops_table(kernel.model)

    @abc.abstractmethod
    def enqueue(self, request: EngineRequest, now: float) -> None:
        """Accept a routed arrival (and start work if capacity is free)."""

    @abc.abstractmethod
    def on_step_done(self, payload: Any, now: float) -> None:
        """Handle completion of a step this scheduler previously pushed."""

    @property
    @abc.abstractmethod
    def queue_depth(self) -> int:
        """Requests waiting for service (excluding those running)."""

    @property
    @abc.abstractmethod
    def n_running(self) -> int:
        """Occupied executor slots (work units currently executing)."""

    def overlap(self, request: EngineRequest, spec: SplitSpec, done: float) -> bool:
        """Take ``request`` now although its head state ``spec`` only lands
        at ``done``?

        ``True`` means the kernel enqueues the request at once and this
        scheduler prices the overlapped prefill at service start
        (:func:`~repro.engine.steering.split_prefill_seconds`); ``False``
        (the default) parks the request until the bytes have landed.
        """
        return False

    def fail(
        self,
    ) -> tuple[list[EngineRequest], list[EngineRequest], list[EngineRequest]]:
        """The replica died: give back ``(queued, prefilling, decoding)``.

        The sessions of the last two are aborted here, releasing their
        pins.  ``queued`` and ``prefilling`` requests were never served and
        are routed afresh by the kernel; a ``decoding`` request's record
        stands, so the scheduler must still continue its session's closed
        loop (``kernel.schedule_next_round``) when the decode would have
        ended.  Completions already pushed for any of them are ghosts the
        scheduler ignores.
        """
        raise NotImplementedError(f"{type(self).__name__} cannot fail over")

    def emit(
        self,
        request: EngineRequest,
        session: RequestSession,
        service_start: float,
        prefill_seconds: float,
        now: float,
    ) -> None:
        """Record ``request`` as served: its prefill ended at ``now``.

        Hit tokens and reused bytes report what the session found in the
        local cache at ``begin``.
        """
        hit_tokens = session.hit_tokens
        self._records.append(
            RequestRecord(
                session_id=request.session_id,
                round_index=request.round_index,
                arrival_time=request.arrival_time,
                service_start=service_start,
                prefill_seconds=prefill_seconds,
                ttft=now - request.arrival_time,
                input_len=request.input_len,
                hit_tokens=hit_tokens,
                output_len=request.output_len,
                reused_bytes=session.reused_bytes,
                flops_saved=self._flops[hit_tokens],
            )
        )


@dataclass(slots=True, eq=False)
class _InFlight:
    """A request from service start to decode end: the payload of both its
    ``PREFILL_DONE`` and its ``REQUEST_COMPLETE`` event (hashed by identity)."""

    request: EngineRequest
    replica: int
    session: RequestSession  # lookup outcome (hit/reused bytes) lives here
    service_start: float
    prefill_seconds: float
    prefill_done: bool = False  # record emitted; the request is decoding
    failed: bool = False  # the replica died under it: its events are ghosts


class ContinuousBatchingScheduler(ReplicaScheduler):
    """FCFS over ``max_running`` executor slots, batched at prefill granularity.

    All requests admitted in one scheduler step begin their cache sessions
    as one batch (each still pays its own FLOP-derived prefill duration);
    the moment a prefill finishes its slot is rescheduled, so the executor
    never idles while the queue is non-empty — continuous batching at the
    granularity of whole prefills.  Decode runs in the background and only
    gates the session's next round.
    """

    can_fail = True

    def __init__(
        self, kernel: "SimulationKernel", replica: int, max_running: int
    ) -> None:
        super().__init__(kernel, replica)
        self.max_running = max_running
        self.queue: deque[EngineRequest] = deque()
        self.free_slots = max_running
        # Everything between service start and decode end: an insertion-
        # ordered set, so fail() hands work back in service order.
        self._flights: dict[_InFlight, None] = {}
        # Split-steered requests still queued here whose head state is in
        # flight: id(request) -> (spec, landing time), until service start.
        self._landings: dict[int, tuple[SplitSpec, float]] = {}

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    @property
    def n_running(self) -> int:
        return self.max_running - self.free_slots

    def enqueue(self, request: EngineRequest, now: float) -> None:
        self.queue.append(request)
        if self.free_slots:
            self._start_next(now)

    def overlap(self, request: EngineRequest, spec: SplitSpec, done: float) -> bool:
        self._landings[id(request)] = (spec, done)
        return True

    def _start_next(self, now: float) -> None:
        """Fill the free slots from the queue (callers saw both non-empty)."""
        n_start = min(self.free_slots, len(self.queue))
        kernel = self.kernel
        batch = [self.queue.popleft() for _ in range(n_start)]
        sessions = self.cache.begin_many(
            [request.input_tokens for request in batch], now
        )
        self.free_slots -= n_start
        prefill_times = kernel.latency.prefill_seconds_batch(
            kernel.model,
            [
                (
                    request.input_len,
                    session.hit_tokens,
                    session.reused_bytes,
                    session.reused_secondary_bytes,
                )
                for request, session in zip(batch, sessions)
            ],
        )
        for request, session, prefill_seconds in zip(batch, sessions, prefill_times):
            if self._landings:
                landing = self._landings.pop(id(request), None)
                if landing is not None:
                    prefill_seconds = split_prefill_seconds(
                        *landing,
                        session.hit_tokens,
                        now,
                        prefill_seconds,
                        kernel.latency,
                        kernel.steering,
                    )
            flight = _InFlight(request, self.replica, session, now, prefill_seconds)
            self._flights[flight] = None
            self._push(now + prefill_seconds, EventKind.PREFILL_DONE, flight)

    def on_step_done(self, flight: _InFlight, now: float) -> None:
        kernel = self.kernel
        if flight.prefill_done:  # REQUEST_COMPLETE: background decode finished
            if flight.failed:
                # The record stands; the client answers off the decode's
                # true end, not off the failure instant, which would let it
                # respond to an answer it never finished receiving.
                kernel.schedule_next_round(flight.request, now)
            else:
                del self._flights[flight]
                kernel.finish_request(flight.request, flight.session, now)
            return
        if flight.failed:  # died mid-prefill and was routed afresh
            return
        request = flight.request
        self.emit(
            request, flight.session, flight.service_start, flight.prefill_seconds, now
        )
        kernel.busy_seconds[self.replica] += flight.prefill_seconds
        self.free_slots += 1
        flight.prefill_done = True
        self._push(
            now + kernel.latency.decode_seconds(request.output_len),
            EventKind.REQUEST_COMPLETE,
            flight,
        )
        if self.queue:
            self._start_next(now)

    def fail(
        self,
    ) -> tuple[list[EngineRequest], list[EngineRequest], list[EngineRequest]]:
        # Queued requests never opened sessions; a queued split request
        # loses its in-flight head with the replica (its TRANSFER_DONE
        # finds the target dead and drops).
        queued = list(self.queue)
        self.queue.clear()
        self._landings.clear()
        # Release the slots: the ghosts return early and would otherwise
        # leave the corpse's running-executor telemetry frozen.
        self.free_slots = self.max_running
        prefilling: list[EngineRequest] = []
        decoding: list[EngineRequest] = []
        for flight in self._flights:
            flight.session.abort()
            flight.failed = True
            (decoding if flight.prefill_done else prefilling).append(flight.request)
        self._flights.clear()
        return queued, prefilling, decoding


@dataclass(slots=True)
class _PrefillJob:
    """Head-of-line prefill progress of the token-level scheduler."""

    request: EngineRequest
    session: Optional[RequestSession] = None  # opened with the first chunk
    position: int = 0  # tokens already processed (including the hit)
    service_start: float = 0.0
    compute_seconds: float = 0.0

    @property
    def remaining(self) -> int:
        return self.request.input_len - self.position


@dataclass(slots=True)
class _DecodeJob:
    """One active decode stream of the token-level scheduler."""

    request: EngineRequest
    session: RequestSession
    produced: int = 0
    last_token_time: float = 0.0
    gaps: list[float] = field(default_factory=list)

    @property
    def remaining(self) -> int:
        return self.request.output_len - self.produced


@dataclass(slots=True)
class _IterationEnd:
    """Payload of one token-level scheduler step (an iteration boundary)."""

    replica: int
    batch: list[_DecodeJob]
    job: Optional[_PrefillJob]
    chunk: int


class TokenBatchingScheduler(ReplicaScheduler):
    """Iteration-level batching with chunked prefill (Orca / Sarathi).

    Time advances one iteration at a time: every iteration carries each
    active decode stream (one token, up to ``max_batch``) plus at most one
    chunk of up to ``token_budget`` tokens from the head-of-line prefill.
    TTFT is the completion of a request's final chunk; each further decode
    token records its inter-token gap into ``tbt_gaps``.  Single-replica
    only (one GPU serving prefills and decodes together): it neither
    overlaps transfers nor fails over.
    """

    def __init__(
        self,
        kernel: "SimulationKernel",
        replica: int,
        token_budget: int,
        max_batch: int,
        iteration_overhead_s: float,
    ) -> None:
        super().__init__(kernel, replica)
        self.token_budget = token_budget
        self.max_batch = max_batch
        self.iteration_overhead_s = iteration_overhead_s
        self.prefill_queue: list[_PrefillJob] = []
        self.decodes: list[_DecodeJob] = []
        self.active = False
        self.n_iterations = 0
        self.tbt_gaps: list[float] = []

    @property
    def queue_depth(self) -> int:
        return len(self.prefill_queue)

    @property
    def n_running(self) -> int:
        return 1 if self.active else 0

    def enqueue(self, request: EngineRequest, now: float) -> None:
        self.prefill_queue.append(_PrefillJob(request=request))
        if not self.active:
            self._start_iteration(now)

    def _chunk_seconds(self, job: _PrefillJob, chunk: int) -> float:
        """Compute time of one prefill chunk (suffix-aware at its position)."""
        latency = self.kernel.latency
        session = job.session
        flops = self._flops[job.position + chunk] - self._flops[job.position]
        seconds = flops / latency.effective_flops_per_s
        if job.position == session.hit_tokens and session.reused_bytes:
            secondary = session.reused_secondary_bytes
            seconds += (
                session.reused_bytes - secondary
            ) / latency.fetch_bandwidth_bytes_per_s
            seconds += secondary / latency.secondary_fetch_bandwidth_bytes_per_s
        return seconds

    def _start_iteration(self, now: float) -> None:
        batch = self.decodes[: self.max_batch]
        chunk = 0
        job: Optional[_PrefillJob] = None
        if self.prefill_queue:
            job = self.prefill_queue[0]
            if job.session is None:
                job.session = self.cache.begin(job.request.input_tokens, now)
                job.service_start = now
                job.position = job.session.hit_tokens
            chunk = min(self.token_budget, job.remaining)

        duration = self.iteration_overhead_s
        if chunk and job is not None:
            chunk_seconds = self._chunk_seconds(job, chunk)
            job.compute_seconds += chunk_seconds
            duration += chunk_seconds
        if batch:
            duration += self.kernel.latency.decode_seconds_per_token
        self.active = True
        self._push(
            now + duration,
            EventKind.PREFILL_DONE,
            _IterationEnd(replica=self.replica, batch=batch, job=job, chunk=chunk),
        )

    def on_step_done(self, payload: _IterationEnd, now: float) -> None:
        kernel = self.kernel
        self.n_iterations += 1

        # --- decode progress -----------------------------------------
        finished_decodes = []
        for stream in payload.batch:
            if stream.produced > 0:
                gap = now - stream.last_token_time
                stream.gaps.append(gap)
                self.tbt_gaps.append(gap)
            stream.produced += 1
            stream.last_token_time = now
            if stream.remaining == 0:
                finished_decodes.append(stream)
        for stream in finished_decodes:
            self.decodes.remove(stream)
            kernel.finish_request(stream.request, stream.session, now)

        # --- prefill progress ----------------------------------------
        job, chunk = payload.job, payload.chunk
        if chunk and job is not None:
            job.position += chunk
            if job.remaining == 0:
                self.prefill_queue.pop(0)
                self.emit(
                    job.request, job.session, job.service_start,
                    job.compute_seconds, now,
                )
                # The first output token is produced with the final
                # prefill chunk; decoding continues next iteration.
                if job.request.output_len == 1:
                    kernel.finish_request(job.request, job.session, now)
                else:
                    self.decodes.append(
                        _DecodeJob(
                            request=job.request,
                            session=job.session,
                            produced=1,
                            last_token_time=now,
                        )
                    )

        # Arrivals landing exactly at this iteration boundary (including
        # zero-think next rounds pushed just above) must join the queue
        # before the next iteration is scheduled; ``active`` stays set so
        # their enqueue cannot start a second concurrent iteration.
        kernel.drain_arrivals_upto(now, self.replica)
        self.active = False
        if self.prefill_queue or self.decodes:
            self._start_iteration(now)
