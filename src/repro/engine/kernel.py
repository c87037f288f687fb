"""The unified discrete-event simulation kernel behind every serving engine.

Marconi's results all flow through trace replays; this module is the one
place that loop lives.  The kernel owns the pieces every engine shares:

* the :class:`~repro.engine.events.EventQueue` and a monotone
  :class:`VirtualClock` (time only moves forward, ties break by
  ``(time, kind, per-queue seq)``);
* per-replica executor state driven by a pluggable
  :class:`ReplicaScheduler` — :class:`ContinuousBatchingScheduler` for
  FCFS prefill-granularity batching over ``max_running`` slots (the
  serving engine and the cluster simulator), and
  :class:`TokenBatchingScheduler` for Sarathi-style iteration-level
  chunked prefill (the iteration engine);
* the transactional cache lifecycle: sessions open via
  ``begin``/``begin_many`` at service start and commit at decode end,
  and the closed-loop scheduling of each trace session's next round;
* request routing (single replica, or an explicit
  :class:`~repro.cluster.router.Router` over N replicas) and per-replica
  telemetry: routed counts, busy seconds, and queue-depth /
  running-executors change-point timeseries in every
  :class:`~repro.engine.results.EngineResult`;
* cluster steering execution: routers return
  :class:`~repro.engine.steering.RouteDecision` verdicts whose optional
  :class:`~repro.engine.steering.TransferSpec` the kernel charges as an
  asynchronous bandwidth/latency ``TRANSFER_DONE`` event (the request is
  parked until the copied state lands in the target's second tier), and
  :class:`~repro.engine.steering.ScenarioEvent` schedules make replicas
  fail (transactional session aborts + orphan re-routing), drain, and
  join mid-run, all accounted into
  :class:`~repro.engine.steering.SteeringTelemetry`.

Determinism protocol: a run's transcript is a pure function of
``(trace, model, latency, caches, router, KernelConfig)`` because nothing
in a run is random: every run builds a fresh event queue (whose tie-break
counter starts at zero) and a fresh clock, and no scheduler, router or
cache draws random numbers.  Replaying the same inputs therefore yields
byte-identical :class:`~repro.engine.results.RequestRecord` streams
regardless of what else ran in the process.
"""

from __future__ import annotations

import abc
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from repro.core.interfaces import CacheProtocol, RequestSession
from repro.engine.events import EventKind, EventQueue
from repro.engine.latency import LatencyModel
from repro.engine.request import EngineRequest
from repro.engine.results import EngineResult, RequestRecord
from repro.engine.steering import (
    GossipTransport,
    NoRoutableReplicaError,
    RouteDecision,
    ScenarioEvent,
    SplitSpec,
    SteeringTelemetry,
    TransferSpec,
    pick_least_loaded,
)
from repro.models.config import ModelConfig
from repro.models.flops import model_prefill_flops, model_suffix_prefill_flops
from repro.workloads.trace import Trace, TraceSession, TraceStream

#: Load reported for replicas that must not receive new requests (failed
#: or draining): large enough that every load-aware policy avoids them.
DEAD_LOAD = 1 << 30

#: First sequence number of session (round-0) arrivals, which are pulled
#: from the trace one at a time.  Reserved (negative) seqs make them sort —
#: at equal (time, kind) — before every event pushed during the run, in
#: trace order: the tie-break order pushing them all up front would give.
_SESSION_SEQ_START = -(1 << 62)


class VirtualClock:
    """Monotone simulation clock: ``advance`` refuses to run backwards."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = start

    @property
    def now(self) -> float:
        return self._now

    def advance(self, to: float) -> float:
        if to < self._now:
            raise ValueError(
                f"virtual clock cannot run backwards: {to} < {self._now}"
            )
        self._now = to
        return self._now


@dataclass(frozen=True)
class KernelConfig:
    """Kernel knobs shared by every engine built on it.

    ``max_running`` is the per-replica executor concurrency: how many
    prefills one replica serves at once (continuous batching at prefill
    granularity — a freed slot immediately starts the next queued
    request).
    """

    max_running: int = 1
    record_timeseries: bool = True

    def __post_init__(self) -> None:
        if self.max_running < 1:
            raise ValueError(f"max_running must be >= 1, got {self.max_running}")


@dataclass(slots=True)
class _InFlight:
    """A request occupying an executor slot between service start and prefill end."""

    request: EngineRequest
    replica: int
    session: RequestSession  # lookup outcome (hit/reused bytes) lives here
    service_start: float
    prefill_seconds: float


@dataclass(slots=True)
class _PendingTransfer:
    """One in-flight cross-replica state transfer.

    For a plain :class:`TransferSpec` the request is parked until the
    bytes land (``split=False``).  For a :class:`SplitSpec` executed with
    overlap (``split=True``) the request is enqueued immediately — the
    ``TRANSFER_DONE`` event only lands the head bytes, and the scheduler
    charges the overlapped prefill from ``done`` when service starts.
    """

    request: EngineRequest
    spec: TransferSpec
    started: float
    done: float = 0.0
    split: bool = False


@dataclass(slots=True)
class _PrefillJob:
    """Head-of-line prefill progress of the token-level scheduler."""

    request: EngineRequest
    session: Optional[RequestSession] = None
    position: int = 0  # tokens already processed (including the hit)
    started: bool = False
    service_start: float = 0.0
    compute_seconds: float = 0.0

    @property
    def hit_tokens(self) -> int:
        return self.session.hit_tokens if self.session is not None else 0

    @property
    def reused_bytes(self) -> int:
        return self.session.reused_bytes if self.session is not None else 0

    @property
    def reused_secondary_bytes(self) -> int:
        return self.session.reused_secondary_bytes if self.session is not None else 0

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


class ReplicaScheduler(abc.ABC):
    """Per-replica scheduling policy plugged into the kernel.

    The kernel routes arrivals to :meth:`enqueue` and step-completion
    events (``EventKind.PREFILL_DONE`` payloads the scheduler pushed) to
    :meth:`on_step_done`; the scheduler decides what runs when, pushes
    its own future events through ``kernel.push``, and reports
    ``queue_depth`` / ``n_running`` for routing loads and telemetry.
    """

    def __init__(self, kernel: "SimulationKernel", replica: int) -> None:
        self.kernel = kernel
        self.replica = replica

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


class ContinuousBatchingScheduler(ReplicaScheduler):
    """FCFS over ``max_running`` executor slots, batched at prefill granularity.

    All requests admitted in one scheduler step begin their cache sessions
    as one batch (each still pays its own FLOP-derived prefill duration);
    the moment a prefill finishes its slot is rescheduled, so the executor
    never idles while the queue is non-empty — continuous batching at the
    granularity of whole prefills.  Decode runs in the background and only
    gates the session's next round.
    """

    def __init__(
        self, kernel: "SimulationKernel", replica: int, max_running: int
    ) -> None:
        super().__init__(kernel, replica)
        self.max_running = max_running
        self.queue: deque[EngineRequest] = deque()
        self.free_slots = max_running
        # Hot-path bindings (schedulers are per-run, like the event queue).
        self._push = kernel.events.push
        self._records = kernel.results[replica].records
        self._track_active = kernel._track_active

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    @property
    def n_running(self) -> int:
        return self.max_running - self.free_slots

    def enqueue(self, request: EngineRequest, now: float) -> None:
        self.queue.append(request)
        self._start_next(now)

    def _start_next(self, now: float) -> None:
        kernel = self.kernel
        n_start = min(self.free_slots, len(self.queue))
        if n_start <= 0:
            return
        batch = [self.queue.popleft() for _ in range(n_start)]
        sessions = kernel.caches[self.replica].begin_many(
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
            if kernel._pending_splits:
                pending = kernel._pending_splits.pop(id(request), None)
                if pending is not None:
                    prefill_seconds = kernel._split_prefill_seconds(
                        pending, session, now, prefill_seconds
                    )
            if self._track_active:  # scenario runs: failover needs the registry
                # [replica, request, session, prefill_done]
                kernel._active_sessions[id(session)] = [
                    self.replica,
                    request,
                    session,
                    False,
                ]
            self._push(
                now + prefill_seconds,
                EventKind.PREFILL_DONE,
                _InFlight(
                    request=request,
                    replica=self.replica,
                    session=session,
                    service_start=now,
                    prefill_seconds=prefill_seconds,
                ),
            )

    def on_step_done(self, flight: _InFlight, now: float) -> None:
        if self._track_active and not flight.session.is_open:
            # The replica failed mid-prefill: the session was aborted and
            # the request re-routed; this completion is a ghost.
            return
        kernel = self.kernel
        request = flight.request
        self._records.append(
            RequestRecord(
                session_id=request.session_id,
                round_index=request.round_index,
                arrival_time=request.arrival_time,
                service_start=flight.service_start,
                prefill_seconds=flight.prefill_seconds,
                ttft=now - request.arrival_time,
                input_len=request.input_len,
                hit_tokens=flight.session.hit_tokens,
                output_len=request.output_len,
                reused_bytes=flight.session.reused_bytes,
                flops_saved=model_prefill_flops(
                    kernel.model, flight.session.hit_tokens
                ),
            )
        )
        kernel.busy_seconds[self.replica] += flight.prefill_seconds
        self.free_slots += 1
        if self._track_active:
            entry = kernel._active_sessions.get(id(flight.session))
            if entry is not None:
                entry[3] = True  # record emitted; the request is decoding now
        self._push(
            now + kernel.latency.decode_seconds(request.output_len),
            EventKind.REQUEST_COMPLETE,
            flight,
        )
        self._start_next(now)


class TokenBatchingScheduler(ReplicaScheduler):
    """Iteration-level batching with chunked prefill (Orca / Sarathi).

    Time advances one iteration at a time: every iteration carries each
    active decode stream (one token, up to ``max_batch``) plus at most one
    chunk of up to ``token_budget`` tokens from the head-of-line prefill.
    TTFT is the completion of a request's final chunk; each further decode
    token records its inter-token gap into ``tbt_gaps``.  Single-replica
    only (one GPU serving prefills and decodes together).
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

    # ------------------------------------------------------------------
    # Iteration costing
    # ------------------------------------------------------------------
    def _chunk_seconds(self, job: _PrefillJob, chunk: int) -> float:
        """Compute time of one prefill chunk (suffix-aware at its position)."""
        latency = self.kernel.latency
        flops = model_suffix_prefill_flops(
            self.kernel.model, job.position + chunk, job.position
        )
        seconds = flops / latency.effective_flops_per_s
        if job.position == job.hit_tokens and job.reused_bytes:
            primary = job.reused_bytes - job.reused_secondary_bytes
            seconds += primary / latency.fetch_bandwidth_bytes_per_s
            seconds += (
                job.reused_secondary_bytes
                / latency.secondary_fetch_bandwidth_bytes_per_s
            )
        return seconds

    def _start_iteration(self, now: float) -> None:
        batch = self.decodes[: self.max_batch]
        chunk = 0
        job: Optional[_PrefillJob] = None
        if self.prefill_queue:
            job = self.prefill_queue[0]
            if not job.started:
                session = self.kernel.caches[self.replica].begin(
                    job.request.input_tokens, now
                )
                job.started = True
                job.service_start = now
                job.session = session
                job.position = session.hit_tokens
            chunk = min(self.token_budget, job.remaining)

        duration = self.iteration_overhead_s
        if chunk and job is not None:
            chunk_seconds = self._chunk_seconds(job, chunk)
            job.compute_seconds += chunk_seconds
            duration += chunk_seconds
        if batch:
            duration += self.kernel.latency.decode_seconds_per_token
        self.active = True
        self.kernel.push(
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
                kernel.emit_record(
                    self.replica,
                    RequestRecord(
                        session_id=job.request.session_id,
                        round_index=job.request.round_index,
                        arrival_time=job.request.arrival_time,
                        service_start=job.service_start,
                        prefill_seconds=job.compute_seconds,
                        ttft=now - job.request.arrival_time,
                        input_len=job.request.input_len,
                        hit_tokens=job.hit_tokens,
                        output_len=job.request.output_len,
                        reused_bytes=job.reused_bytes,
                        flops_saved=model_prefill_flops(
                            kernel.model, job.hit_tokens
                        ),
                    ),
                )
                # The first output token is produced with the final
                # prefill chunk; decoding continues next iteration.
                self.decodes.append(
                    _DecodeJob(
                        request=job.request,
                        session=job.session,
                        produced=1,
                        last_token_time=now,
                    )
                )
                if job.request.output_len == 1:
                    stream = self.decodes.pop()
                    kernel.finish_request(stream.request, stream.session, now)

        # Arrivals landing exactly at this iteration boundary (including
        # zero-think next rounds pushed just above) must join the queue
        # before the next iteration is scheduled; ``active`` stays set so
        # their enqueue cannot start a second concurrent iteration.
        kernel.drain_arrivals_upto(now)
        self.active = False
        if self.prefill_queue or self.decodes:
            self._start_iteration(now)


class _KernelGossipTransport(GossipTransport):
    """Directory gossip over the kernel: flushes are ``DIRECTORY_SYNC``
    events charged on the virtual clock, so propagation delay and gossip
    cadence are simulated time like everything else."""

    __slots__ = ("_kernel",)

    def __init__(self, kernel: "SimulationKernel") -> None:
        self._kernel = kernel

    def now(self) -> float:
        return self._kernel.clock.now

    def schedule(self, time: float, callback: Callable[[float], None]) -> None:
        kernel = self._kernel
        kernel.events.push(max(time, kernel.clock.now), EventKind.DIRECTORY_SYNC, callback)


SchedulerFactory = Callable[["SimulationKernel", int], ReplicaScheduler]


@dataclass
class KernelRun:
    """Everything one kernel run produced, before engine-specific shaping."""

    replica_results: list[EngineResult]
    routed_counts: list[int]
    busy_seconds: list[float]
    schedulers: list[ReplicaScheduler]
    n_events: int
    end_time: float
    steering: Optional[SteeringTelemetry] = None


class SimulationKernel:
    """One continuous-batching trace replay over N cache-owning replicas.

    The serving engine, the iteration engine, and the cluster simulator
    are thin configurations of this class: 1 replica with ``max_running``
    slots, 1 replica with a :class:`TokenBatchingScheduler`, and N
    replicas behind a router, respectively.
    """

    def __init__(
        self,
        model: ModelConfig,
        caches: Sequence[CacheProtocol],
        latency: Optional[LatencyModel] = None,
        router: Optional[Any] = None,
        config: Optional[KernelConfig] = None,
        scheduler_factory: Optional[SchedulerFactory] = None,
        policy_names: Optional[Sequence[str]] = None,
        scenario: Optional[Sequence[ScenarioEvent]] = None,
    ) -> None:
        if not caches:
            raise ValueError("need at least one replica cache")
        if router is None and len(caches) > 1:
            raise ValueError("multi-replica kernels need a router")
        if scenario and router is None:
            raise ValueError("scenario schedules need a router to re-route around")
        self.model = model
        self.caches = list(caches)
        self.latency = latency or LatencyModel()
        self.router = router
        self.config = config or KernelConfig()
        self._record_timeseries = self.config.record_timeseries
        self.scenario = sorted(scenario, key=lambda ev: ev.time) if scenario else []
        self._scheduler_factory = scheduler_factory or (
            lambda kernel, replica: ContinuousBatchingScheduler(
                kernel, replica, kernel.config.max_running
            )
        )
        if policy_names is None:
            policy_names = [f"replica{i}" for i in range(len(self.caches))]
        if len(policy_names) != len(self.caches):
            raise ValueError("need one policy name per replica cache")
        self.policy_names = list(policy_names)
        # Joins grow the replica lists mid-run; remember the configured
        # fleet so repeated run() calls start from the same topology.
        self._initial_caches = tuple(self.caches)
        self._initial_policy_names = tuple(self.policy_names)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, trace: Union[Trace, TraceStream]) -> KernelRun:
        """Replay the full trace; per-run state is rebuilt from scratch.

        Sessions are *pulled* from ``trace.iter_sessions()`` (arrival
        order; a :class:`Trace` sorts its list, a :class:`TraceStream`
        generates lazily): exactly one not-yet-arrived session is held at
        a time, and ``_sessions_by_id`` drops sessions as their last round
        completes, so the kernel's own memory scales with the number of
        concurrently active sessions rather than the trace length (see
        :data:`_SESSION_SEQ_START` for the tie-break order).
        """
        self.caches = list(self._initial_caches)
        self.policy_names = list(self._initial_policy_names)
        n = len(self.caches)
        self.clock = VirtualClock()
        self.events = EventQueue()
        self.results = [
            EngineResult(
                policy=self.policy_names[i], max_running=self.config.max_running
            )
            for i in range(n)
        ]
        # Steering state (zero-overhead unless a scenario is scheduled: the
        # in-flight registry and ghost-event checks are only active for
        # failover runs; set before the factories so schedulers can bind it).
        self.alive = [True] * n
        self.draining = [False] * n
        self._track_active = bool(self.scenario)
        self._active_sessions: dict[int, list] = {}
        self._interrupted_requests: set[int] = set()
        self._override_rotation = 0
        # Transfer-link pricing: each source's outbound link serializes its
        # transfers (concurrent copies queue, they don't multiply bandwidth).
        self._link_free_at: dict[int, float] = {}
        # Split transfers whose request runs ahead of the landing bytes,
        # keyed by id(request); popped when service starts (or on failover).
        self._pending_splits: dict[int, _PendingTransfer] = {}
        # Results must exist before the factories run: schedulers may bind
        # their replica's record list for the hot path.
        self.schedulers = [self._scheduler_factory(self, i) for i in range(n)]
        self.routed_counts = [0] * n
        self.busy_seconds = [0.0] * n
        # Sessions with rounds still outstanding (see _push_next_session).
        self._sessions_by_id: dict[int, TraceSession] = {}
        self._sessions: Iterator[TraceSession] = trace.iter_sessions()
        self._session_seq = itertools.count(_SESSION_SEQ_START)
        self._n_events = 0
        # Hot-loop telemetry state: last sampled (depth, running) per replica,
        # so change-point detection is two int compares per event.
        self._last_depth = [-1] * n
        self._last_running = [-1] * n
        self.steering = SteeringTelemetry()
        for _ in range(n):
            self.steering.add_replica()
        if self.router is not None:
            self.router.prepare(self.model, self.caches, self.latency)
            # A sharded directory propagates through the event queue: hand
            # it this run's transport (replacing any prior run's, whose
            # queue is gone) so gossip flushes ride the virtual clock.
            directory = getattr(self.router, "directory", None)
            connect = getattr(directory, "connect_transport", None)
            if connect is not None:
                connect(_KernelGossipTransport(self))
        for control in self.scenario:
            self.events.push(control.time, EventKind.CONTROL, control)

        self._push_next_session()

        # The event loop is the simulator's hot path: dispatch is inlined
        # and bound to locals (one run processes 3+ events per request),
        # consuming raw (time, kind, seq, serial, payload) heap entries so
        # no Event object is built per dispatch.  Joins append to
        # self.schedulers in place, so the local alias stays valid across
        # topology changes.
        events = self.events
        pop_entry = events.pop_entry
        clock = self.clock
        schedulers = self.schedulers
        track_active = self._track_active
        arrival_kind = int(EventKind.REQUEST_ARRIVAL)
        prefill_kind = int(EventKind.PREFILL_DONE)
        complete_kind = int(EventKind.REQUEST_COMPLETE)
        transfer_kind = int(EventKind.TRANSFER_DONE)
        control_kind = int(EventKind.CONTROL)
        n_events = 0
        while events:
            time, kind, _seq, _serial, payload = pop_entry()
            now = clock.advance(time)
            n_events += 1
            if kind == prefill_kind:
                replica = payload.replica
                schedulers[replica].on_step_done(payload, now)
                self._sample(replica, now)
            elif kind == arrival_kind:
                if payload.round_index == 0:
                    # A session just arrived: pull the next one (its
                    # arrival is >= this one, so time stays monotone).
                    self._push_next_session()
                self._admit(payload, now)
            elif kind == complete_kind:  # background decode finished
                if not track_active:
                    self.finish_request(payload.request, payload.session, now)
                elif payload.session.is_open:
                    self._active_sessions.pop(id(payload.session), None)
                    self.finish_request(payload.request, payload.session, now)
                elif id(payload.request) in self._interrupted_requests:
                    # Ghost completion of a decode the failure interrupted:
                    # its record stands; only the closed loop continues.
                    self._interrupted_requests.discard(id(payload.request))
                    self._schedule_next_round(payload.request, now)
            elif kind == transfer_kind:
                self._finish_transfer(payload, now)
            elif kind == control_kind:  # scenario topology change
                self._apply_scenario(payload, now)
            else:  # DIRECTORY_SYNC: a sharded-directory gossip flush
                payload(now)
        self._n_events += n_events

        if self._link_free_at:
            # Any transfer activity: audit the link ledger (catches a
            # reintroduction of parallel full-bandwidth pricing at run end,
            # where it costs one O(replicas) pass instead of per-event work).
            self.steering.check_conservation(
                self.latency.transfer_bandwidth_bytes_per_s
            )
        for index, cache in enumerate(self.caches):
            if hasattr(cache, "stats"):
                self.results[index].cache_stats = cache.stats.snapshot()
            self._sample(index, self.clock.now, force=True)
        return KernelRun(
            replica_results=self.results,
            routed_counts=self.routed_counts,
            busy_seconds=self.busy_seconds,
            schedulers=self.schedulers,
            n_events=self._n_events,
            end_time=self.clock.now,
            steering=self.steering,
        )

    def _push_next_session(self) -> None:
        """Pull the next session and schedule its first arrival.

        Round-0 arrivals carry reserved seqs (see
        :data:`_SESSION_SEQ_START`); only sessions with rounds still
        outstanding live in ``_sessions_by_id``.
        """
        session = next(self._sessions, None)
        if session is None:
            return
        self._sessions_by_id[session.session_id] = session
        self.events.push(
            session.arrival_time,
            EventKind.REQUEST_ARRIVAL,
            EngineRequest.from_session(session, 0, session.arrival_time),
            seq=next(self._session_seq),
        )

    def _admit(self, request: EngineRequest, now: float) -> None:
        replica = 0
        transfer: Optional[TransferSpec] = None
        if self.router is not None:
            decision: RouteDecision = self.router.decide(
                request.input_tokens,
                request.session_id,
                self.caches,
                self.loads(),
                now,
            )
            replica, transfer = decision.replica, decision.transfer
            if not 0 <= replica < len(self.caches):
                raise ValueError(
                    f"router {self.router.name!r} returned invalid replica {replica}"
                )
            if not self._routable(replica):
                replica = self._fallback_alive()
                transfer = None  # the plan targeted the unroutable replica
                self.steering.bump("overrides")
        if transfer is not None and self._transfer_feasible(transfer, replica):
            if self._source_holds_state(transfer):
                self.steering.bump("transfers_planned")
                done = self._charge_transfer(transfer, now)
                split = isinstance(transfer, SplitSpec) and isinstance(
                    self.schedulers[replica], ContinuousBatchingScheduler
                )
                pending = _PendingTransfer(
                    request=request,
                    spec=transfer,
                    started=now,
                    done=done,
                    split=split,
                )
                self.events.push(done, EventKind.TRANSFER_DONE, pending)
                if split:
                    # Split-point overlap: the request starts its tail
                    # recompute immediately while the head transfer is in
                    # flight; the scheduler prices the overlap at service
                    # start and the TRANSFER_DONE event just lands bytes.
                    # (A SplitSpec landing on a scheduler without overlap
                    # support degrades to the parked all-or-nothing path.)
                    self.steering.bump("transfers_split")
                    self._pending_splits[id(request)] = pending
                    self._enqueue(request, replica, now)
                return
            # The plan came from a stale directory view: the source no
            # longer checkpoints the prefix, so recompute locally instead.
            self.steering.bump("transfers_stale_source")
        self._enqueue(request, replica, now)

    def _charge_transfer(self, spec: TransferSpec, now: float) -> float:
        """Completion time of ``spec`` under serialized source-link pricing.

        Each source replica owns one outbound transfer link: a new copy
        starts when the link frees up, never sooner, so N concurrent
        transfers from one source share the link back-to-back instead of
        each enjoying the full ``transfer_bandwidth_bytes_per_s`` (the
        N× aggregate-bandwidth bug).  :meth:`SteeringTelemetry.record_link`
        keeps the busy/wait ledger the conservation check audits.
        """
        free_at = self._link_free_at.get(spec.source, 0.0)
        start = free_at if free_at > now else now
        duration = self.latency.transfer_seconds(spec.nbytes)
        done = start + duration
        self._link_free_at[spec.source] = done
        self.steering.record_link(spec.source, duration, start - now)
        return done

    def _enqueue(self, request: EngineRequest, replica: int, now: float) -> None:
        self.routed_counts[replica] += 1
        self.schedulers[replica].enqueue(request, now)
        self._sample(replica, now)

    # ------------------------------------------------------------------
    # Steering: transfers and scenario control
    # ------------------------------------------------------------------
    def _routable(self, replica: int) -> bool:
        return self.alive[replica] and not self.draining[replica]

    def _fallback_alive(self) -> int:
        """Least-loaded routable replica (the router policy's own
        selection rule; unroutable replicas read as DEAD_LOAD)."""
        loads = [
            (s.queue_depth + s.n_running) if self._routable(i) else DEAD_LOAD
            for i, s in enumerate(self.schedulers)
        ]
        if not loads or min(loads) >= DEAD_LOAD:
            n_failed = self.alive.count(False)
            n_draining = sum(
                1 for i, d in enumerate(self.draining) if d and self.alive[i]
            )
            raise NoRoutableReplicaError(
                f"no routable replicas remain in the cluster: of "
                f"{len(self.caches)} replicas, {n_failed} failed and "
                f"{n_draining} draining — add capacity (a 'join' scenario "
                f"event) or stop failing/draining the last replica"
            )
        choice = pick_least_loaded(loads, self._override_rotation)
        self._override_rotation += 1
        return choice

    def _source_holds_state(self, spec: TransferSpec) -> bool:
        """Does the source replica still checkpoint ``spec.tokens``?

        A synchronous directory plans from live state, so this always
        holds; a sharded view may claim coverage the source has since
        evicted (or lost to a failure wipe) — validate before shipping
        bytes instead of transferring garbage.  Trees are the only state
        we can inspect; tree-less sources are trusted (legacy behaviour).
        """
        tree = getattr(self.caches[spec.source], "tree", None)
        if tree is None:
            return True
        match = tree.match(spec.tokens)
        if match.matched_len < len(spec.tokens):
            return False
        node = match.deepest_ssm_node(max_seq_len=len(spec.tokens))
        return node is not None and node.seq_len == len(spec.tokens)

    def _transfer_feasible(self, spec: TransferSpec, replica: int) -> bool:
        return (
            spec.target == replica
            and spec.source != replica
            and 0 <= spec.source < len(self.caches)
            and self.alive[spec.source]
            and hasattr(self.caches[replica], "receive_state_transfer")
        )

    def _split_prefill_seconds(
        self,
        pending: _PendingTransfer,
        session: Any,
        now: float,
        base: float,
    ) -> float:
        """Overlapped prefill charge of a split-steered request.

        Called by the scheduler when the request's service starts.  The
        two halves run concurrently — the head transfer (whatever of it
        is still in flight, plus the secondary fetch once it lands) and
        the tail recompute — so completion is priced as::

            overhead + max(transfer_remaining + head_fetch, tail_compute)
            + split_merge

        ``base`` is what the request would pay serving purely from local
        state; the cheaper of the two is charged (the plan was made from
        a pre-queue estimate, so local state may meanwhile have grown past
        the shipped head, or the overlap may simply not pay off at actual
        service time).  The session's recorded ``hit_tokens``/
        ``reused_bytes`` keep reporting local-cache truth — the split's
        benefit shows up in TTFT and in the overlap telemetry, not as a
        synthetic cache hit.
        """
        spec = pending.spec
        steering = self.steering
        if now >= pending.done:
            # The head landed while the request was still queued: begin()
            # already promoted the shipped state through the tiering path
            # and ``base`` priced its secondary fetch — the transfer hid
            # entirely behind queue wait.
            steering.bump("splits_hidden")
            return base
        if session.hit_tokens >= spec.split_depth:
            # Local state grew at least as deep as the shipped head while
            # the request queued: the transfer buys nothing extra.
            steering.bump("splits_ignored")
            return base
        latency = self.latency
        load_arm = (pending.done - now) + spec.nbytes / (
            latency.secondary_fetch_bandwidth_bytes_per_s
        )
        tail_arm = spec.tail_flops / latency.effective_flops_per_s
        overlapped = (
            latency.prefill_overhead_s + max(load_arm, tail_arm)
            + latency.split_merge_s
        )
        if overlapped >= base:
            steering.bump("splits_ignored")
            return base
        steering.bump("splits_overlapped")
        steering.overlap_seconds_saved += base - overlapped
        return overlapped

    def _finish_transfer(self, pending: _PendingTransfer, now: float) -> None:
        """Land a transfer's bytes on its target (``TRANSFER_DONE``).

        A parked request (``not pending.split``) waits on this event: it
        is enqueued once the bytes land, or routed afresh when the target
        stopped taking requests meanwhile.  A split request was never
        parked — it is already queued (or being served) on the target — so
        a *draining* target, which still finishes its queue, must receive
        the head bytes; only a dead one drops the copy.
        """
        spec = pending.spec
        target = spec.target
        parked = not pending.split
        can_land = self._routable(target) if parked else self.alive[target]
        if not can_land:
            self.steering.bump("transfers_dropped")
            if parked:
                self._admit(pending.request, now)
            return
        if self.caches[target].receive_state_transfer(spec.tokens, spec.nbytes, now):
            self.steering.record_transfer(
                spec.source, target, spec.nbytes, now - pending.started
            )
        else:
            self.steering.bump("transfers_rejected")
        if parked:
            self._enqueue(pending.request, target, now)

    def _apply_scenario(self, control: ScenarioEvent, now: float) -> None:
        if control.action == "join":
            self._join_replica(control, now)
            return
        if not 0 <= control.replica < len(self.caches):
            raise ValueError(
                f"scenario {control.action!r} at t={control.time} names replica "
                f"{control.replica}, but the cluster has {len(self.caches)}"
            )
        if control.action == "fail":
            self._fail_replica(control.replica, now)
        elif self.alive[control.replica] and not self.draining[control.replica]:
            self.draining[control.replica] = True
            self.steering.bump("drains")

    def _fail_replica(self, replica: int, now: float) -> None:
        if not self.alive[replica]:
            return
        self.alive[replica] = False
        self.steering.bump("failures")
        scheduler = self.schedulers[replica]
        orphans: list[EngineRequest] = []
        # Queued requests never opened sessions; just re-route them.
        queue = getattr(scheduler, "queue", None)
        if queue is not None:
            orphans.extend(queue)
            queue.clear()
        # Release the occupied slots: the ghost completions of aborted
        # flights return early and would otherwise leave the corpse's
        # running-executor telemetry frozen at its at-failure value.
        if isinstance(scheduler, ContinuousBatchingScheduler):
            scheduler.free_slots = scheduler.max_running
        # In-flight requests (prefilling or decoding) abort their sessions
        # through the transactional path, releasing every pin they hold.
        # Mid-prefill requests were never served: they re-route and get
        # their (single) record elsewhere.  Mid-decode requests already
        # emitted their record; re-serving them would double-count the
        # round, so instead their session simply continues — the next
        # round is scheduled as if the decode had just finished (the
        # cache admission of the interrupted round is lost with the
        # replica).
        interrupted: list[EngineRequest] = []
        for key, (owner, request, session, prefill_done) in list(
            self._active_sessions.items()
        ):
            if owner == replica:
                session.abort()
                del self._active_sessions[key]
                self.steering.bump("aborted_sessions")
                if prefill_done:
                    interrupted.append(request)
                else:
                    orphans.append(request)
        # The replica's memory is gone: wipe its cache (detaching anything
        # the abort pass could not reach) and invalidate the directory.
        cache = self.caches[replica]
        if hasattr(cache, "reset"):
            cache.reset()
        if self.router is not None:
            self.router.on_replica_left(replica)
        # Orphans keep their original arrival times, so the TTFT of a
        # re-routed request includes everything the failure cost it.
        for request in sorted(orphans, key=lambda r: r.arrival_time):
            # A queued split request loses its in-flight head with the
            # replica: forget the overlap plan before re-admitting (the
            # stale TRANSFER_DONE event finds its target dead and drops).
            self._pending_splits.pop(id(request), None)
            self.steering.bump("reroutes")
            self._admit(request, now)
        for request in interrupted:
            self.steering.bump("interrupted_decodes")
            # The session's next round fires off the ghost REQUEST_COMPLETE
            # already in the queue — the decode's true completion time —
            # not off the failure instant, which would let the client
            # "respond" to an answer it never finished receiving.
            self._interrupted_requests.add(id(request))
        self._sample(replica, now)

    def _join_replica(self, control: ScenarioEvent, now: float) -> None:
        cache = control.cache_factory()
        index = len(self.caches)
        self.caches.append(cache)
        name = control.name or f"{self.policy_names[0].rsplit('/', 1)[0]}/replica{index}"
        self.policy_names.append(name)
        self.results.append(
            EngineResult(policy=name, max_running=self.config.max_running)
        )
        # The result must exist before the factory runs (hot-path binding).
        self.schedulers.append(self._scheduler_factory(self, index))
        self.routed_counts.append(0)
        self.busy_seconds.append(0.0)
        self._last_depth.append(-1)
        self._last_running.append(-1)
        self.alive.append(True)
        self.draining.append(False)
        self.steering.add_replica()
        self.steering.bump("joins")
        if self.router is not None:
            self.router.on_replica_joined(index, cache)
        self._sample(index, now)

    # ------------------------------------------------------------------
    # Services for schedulers
    # ------------------------------------------------------------------
    def push(self, time: float, kind: EventKind, payload: Any) -> None:
        """Schedule a future event (schedulers' only way to advance work)."""
        self.events.push(time, kind, payload)

    def loads(self) -> list[int]:
        """Per-replica in-flight request counts (queued + running).

        Failed and draining replicas report :data:`DEAD_LOAD` so every
        load-aware policy steers around them without knowing about
        topology; content-blind picks are corrected by the kernel's
        routable-fallback (counted as ``overrides``).
        """
        if not self._track_active:
            return [s.queue_depth + s.n_running for s in self.schedulers]
        return [
            (s.queue_depth + s.n_running) if self._routable(i) else DEAD_LOAD
            for i, s in enumerate(self.schedulers)
        ]

    def emit_record(self, replica: int, record: RequestRecord) -> None:
        self.results[replica].records.append(record)

    def finish_request(
        self, request: EngineRequest, session: RequestSession, now: float
    ) -> None:
        """Commit the finished sequence and schedule the session's next
        round after its think-time gap (closed-loop within sessions)."""
        session.commit(request.full_tokens, now)
        self._schedule_next_round(request, now)

    def _schedule_next_round(self, request: EngineRequest, now: float) -> None:
        trace_session = self._sessions_by_id[request.session_id]
        next_round = request.round_index + 1
        if next_round < trace_session.n_rounds:
            arrival = now + trace_session.think_times[next_round]
            self.events.push(
                arrival,
                EventKind.REQUEST_ARRIVAL,
                EngineRequest.from_session(trace_session, next_round, arrival),
            )
        else:
            # The session's last round is done: release its tokens so the
            # kernel holds only concurrently active sessions.
            del self._sessions_by_id[request.session_id]

    def drain_arrivals_upto(self, now: float) -> None:
        """Admit every queued arrival event with time <= ``now`` immediately.

        Used by schedulers that make batching decisions at step boundaries
        (the token-level scheduler): arrivals tying with the step-end event
        sort after it (``REQUEST_ARRIVAL`` has the highest kind) but must
        be visible to the very next scheduling decision.
        """
        events = self.events
        arrival_kind = int(EventKind.REQUEST_ARRIVAL)
        while events:
            head = events.peek_entry()
            if head[1] != arrival_kind or head[0] > now:
                break
            payload = events.pop_entry()[4]
            self._n_events += 1
            if payload.round_index == 0:
                # The freshly pulled session may itself arrive <= now; the
                # loop keeps draining until the head moves past ``now``.
                self._push_next_session()
            self._admit(payload, now)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _sample(self, replica: int, now: float, force: bool = False) -> None:
        """Record queue-depth / running change points for one replica."""
        if not self._record_timeseries:
            return
        scheduler = self.schedulers[replica]
        depth = scheduler.queue_depth
        running = scheduler.n_running
        if force or depth != self._last_depth[replica]:
            self._last_depth[replica] = depth
            self.results[replica].queue_depth_series.append((now, depth))
        if force or running != self._last_running[replica]:
            self._last_running[replica] = running
            self.results[replica].running_series.append((now, running))
