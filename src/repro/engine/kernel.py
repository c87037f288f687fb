"""The unified discrete-event simulation kernel behind every serving engine.

Marconi's results all flow through trace replays; this module is the one
place that loop lives.  The kernel is a clock, a queue and a dispatch
table — :meth:`SimulationKernel.run` pops an event, advances the clock and
calls the handler of its kind — plus what every engine shares:

* the :class:`~repro.engine.events.EventQueue` and a monotone
  :class:`VirtualClock` (time only moves forward, ties break by
  ``(time, kind, per-queue seq)``);
* one pluggable :class:`~repro.engine.schedulers.ReplicaScheduler` per
  replica, which decides what runs when.  That class's docstring is the
  whole contract between the two modules: the kernel asks a scheduler
  nothing it does not list, and a scheduler touches no kernel member it
  does not list;
* the closed loop of each trace session: a scheduler commits a finished
  request through :meth:`SimulationKernel.finish_request`, which schedules
  the session's next round after its think time;
* request routing (single replica, or an explicit
  :class:`~repro.cluster.router.Router` over N replicas) and per-replica
  telemetry: routed counts, busy seconds, and queue-depth /
  running-executors change-point timeseries in every
  :class:`~repro.engine.results.EngineResult`;
* cluster steering execution: routers return
  :class:`~repro.engine.steering.RouteDecision` verdicts whose optional
  :class:`~repro.engine.steering.TransferSpec` the kernel charges as an
  asynchronous bandwidth/latency ``TRANSFER_DONE`` event (the request is
  parked until the copied state lands in the target's second tier, or runs
  ahead of it when the scheduler can overlap the two), and
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

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from repro.core.interfaces import CacheProtocol, RequestSession
from repro.engine.events import (
    ENTRY_KIND,
    ENTRY_PAYLOAD,
    ENTRY_TIME,
    EventKind,
    EventQueue,
)
from repro.engine.latency import LatencyModel
from repro.engine.request import EngineRequest
from repro.engine.results import EngineResult
from repro.engine.schedulers import ContinuousBatchingScheduler, ReplicaScheduler
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

    def __post_init__(self) -> None:
        if self.max_running < 1:
            raise ValueError(f"max_running must be >= 1, got {self.max_running}")


@dataclass(slots=True)
class _PendingTransfer:
    """One in-flight cross-replica state transfer.

    For a plain :class:`TransferSpec` the request is parked until the
    bytes land (``split=False``).  For a :class:`SplitSpec` the target's
    scheduler agreed to overlap (``split=True``), the request is enqueued
    immediately and the ``TRANSFER_DONE`` event only lands the head bytes.
    """

    request: EngineRequest
    spec: TransferSpec
    started: float
    split: bool = False


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


def _flush_gossip(callback: Callable[[float], None], now: float) -> None:
    """``DIRECTORY_SYNC``: a sharded-directory gossip flush comes due."""
    callback(now)


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
    slots, 1 replica with a
    :class:`~repro.engine.schedulers.TokenBatchingScheduler`, and N
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
        # The dispatch table: one handler(payload, now) per event kind.
        handlers = {
            # Steps and background decodes go back to the scheduler that
            # pushed them; arrivals are routed; the rest is steering.
            EventKind.PREFILL_DONE: self._on_step_done,
            EventKind.REQUEST_COMPLETE: self._on_decode_done,
            EventKind.REQUEST_ARRIVAL: self._on_arrival,
            EventKind.TRANSFER_DONE: self._finish_transfer,
            EventKind.CONTROL: self._apply_scenario,
            EventKind.DIRECTORY_SYNC: _flush_gossip,
        }
        self._handlers = [handlers[kind] for kind in EventKind]

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
        self._begin_run(trace)
        # The hot path (3+ events per request): raw (time, kind, seq,
        # serial, payload) heap entries, so no Event object is built.
        handlers = self._handlers
        events = self.events
        pop_entry = events.pop_entry
        advance = self.clock.advance
        n_events = 0
        while events:
            time, kind, _seq, _serial, payload = pop_entry()
            handlers[kind](payload, advance(time))
            n_events += 1
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

    def _begin_run(self, trace: Union[Trace, TraceStream]) -> None:
        """Rebuild every piece of per-run state and schedule the first events."""
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
        self.alive = [True] * n
        self.draining = [False] * n
        self._loads = [0] * n  # what loads() hands out
        self._override_rotation = 0
        # Transfer-link pricing: each source's outbound link serializes its
        # transfers (concurrent copies queue, they don't multiply bandwidth).
        self._link_free_at: dict[int, float] = {}
        self.routed_counts = [0] * n
        self.busy_seconds = [0.0] * n
        self.steering = SteeringTelemetry()
        for _ in range(n):
            self.steering.add_replica()
        # Everything a scheduler may bind (see ReplicaScheduler) exists by now.
        self.schedulers = [self._scheduler_factory(self, i) for i in range(n)]
        if self.scenario:
            for scheduler in self.schedulers:
                if not scheduler.can_fail:
                    raise ValueError(
                        f"{type(scheduler).__name__} cannot hand back its work "
                        f"when its replica fails, so it cannot run under a "
                        f"scenario schedule"
                    )
        # Sessions with rounds still outstanding (see _push_next_session).
        self._sessions_by_id: dict[int, TraceSession] = {}
        self._sessions: Iterator[TraceSession] = trace.iter_sessions()
        self._session_seq = itertools.count(_SESSION_SEQ_START)
        self._n_events = 0
        # Last sampled (depth, running) per replica, so change-point
        # detection is two int compares per event.
        self._last_depth = [-1] * n
        self._last_running = [-1] * n
        if self.router is not None:
            self.router.prepare(self.model, self.caches, self.latency)
            # A sharded directory propagates through the event queue: hand
            # it this run's transport (replacing any prior run's, whose
            # queue is gone) so gossip flushes ride the virtual clock.
            directory = self.router.directory
            if directory is not None:
                directory.connect_transport(_KernelGossipTransport(self))
        for control in self.scenario:
            self.events.push(control.time, EventKind.CONTROL, control)
        self._push_next_session()

    def _push_next_session(self) -> None:
        """Pull the next session and schedule its first arrival.

        Round-0 arrivals carry reserved seqs (see
        :data:`_SESSION_SEQ_START`); only sessions with rounds still
        outstanding live in ``_sessions_by_id``.
        """
        session = next(self._sessions, None)
        if session is None:
            return
        if session.session_id in self._sessions_by_id:
            raise ValueError(
                f"session_id {session.session_id} arrives while a session "
                f"with that id still has rounds outstanding"
            )
        self._sessions_by_id[session.session_id] = session
        self.events.push(
            session.arrival_time,
            EventKind.REQUEST_ARRIVAL,
            EngineRequest.from_session(session, 0, session.arrival_time),
            seq=next(self._session_seq),
        )

    # ------------------------------------------------------------------
    # Event handlers (see the dispatch table in __init__)
    # ------------------------------------------------------------------
    def _on_step_done(self, payload: Any, now: float) -> None:
        """``PREFILL_DONE``: a step of the scheduler that pushed it ended."""
        replica = payload.replica
        self.schedulers[replica].on_step_done(payload, now)
        self._sample(replica, now)

    def _on_decode_done(self, payload: Any, now: float) -> None:
        """``REQUEST_COMPLETE``: likewise, but a background decode holds
        neither a queue place nor a slot, so there is nothing to sample."""
        self.schedulers[payload.replica].on_step_done(payload, now)

    def _on_arrival(self, request: EngineRequest, now: float) -> None:
        """``REQUEST_ARRIVAL``: route the request and queue it on a replica."""
        if request.round_index == 0:
            # A session just arrived: pull the next one (its arrival is >=
            # this one, so time stays monotone).
            self._push_next_session()
        self._admit(request, now)

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
                # Split-point overlap: the request starts its tail recompute
                # immediately while the head transfer is in flight; the
                # scheduler prices the overlap at service start and the
                # TRANSFER_DONE event just lands bytes.  (On a scheduler
                # that declines, a SplitSpec degrades to the parked
                # all-or-nothing path.)
                split = isinstance(transfer, SplitSpec) and self.schedulers[
                    replica
                ].overlap(request, transfer, done)
                self.events.push(
                    done,
                    EventKind.TRANSFER_DONE,
                    _PendingTransfer(request, transfer, started=now, split=split),
                )
                if split:
                    self.steering.bump("transfers_split")
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
        loads = self.loads()
        if min(loads) >= DEAD_LOAD:
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
        """``CONTROL``: a scenario topology change."""
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
            self._loads[control.replica] = DEAD_LOAD
            self.steering.bump("drains")

    def _fail_replica(self, replica: int, now: float) -> None:
        if not self.alive[replica]:
            return
        self.alive[replica] = False
        self._loads[replica] = DEAD_LOAD  # before the orphans below re-route
        self.steering.bump("failures")
        # The scheduler gives back its work, aborting the open sessions
        # through the transactional path (every pin they hold is released).
        # Mid-prefill requests were never served: they re-route and get
        # their (single) record elsewhere.  Mid-decode requests already
        # emitted their record; re-serving them would double-count the
        # round, so instead their session simply continues (the cache
        # admission of the interrupted round is lost with the replica).
        queued, prefilling, decoding = self.schedulers[replica].fail()
        if prefilling or decoding:
            self.steering.bump("aborted_sessions", len(prefilling) + len(decoding))
        # The replica's memory is gone: wipe its cache (detaching anything
        # the abort pass could not reach) and invalidate the directory.
        cache = self.caches[replica]
        if hasattr(cache, "reset"):
            cache.reset()
        if self.router is not None:
            self.router.on_replica_left(replica)
        # Orphans keep their original arrival times, so the TTFT of a
        # re-routed request includes everything the failure cost it.
        for request in sorted(queued + prefilling, key=lambda r: r.arrival_time):
            self.steering.bump("reroutes")
            self._admit(request, now)
        if decoding:
            self.steering.bump("interrupted_decodes", len(decoding))
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
        self.routed_counts.append(0)
        self.busy_seconds.append(0.0)
        self._last_depth.append(-1)
        self._last_running.append(-1)
        self.alive.append(True)
        self.draining.append(False)
        self._loads.append(0)
        self.steering.add_replica()
        self.steering.bump("joins")
        # As in _begin_run: the replica's state exists before its scheduler.
        self.schedulers.append(self._scheduler_factory(self, index))
        if self.router is not None:
            self.router.on_replica_joined(index, cache)
        self._sample(index, now)

    # ------------------------------------------------------------------
    # Services for schedulers and routers
    # ------------------------------------------------------------------
    def loads(self) -> list[int]:
        """Per-replica in-flight request counts (queued + running).

        Failed and draining replicas report :data:`DEAD_LOAD` so every
        load-aware policy steers around them without knowing about
        topology; content-blind picks are corrected by the kernel's
        routable-fallback (counted as ``overrides``).  One live list, kept
        current where a load changes (:meth:`_sample`, fail, drain, join)
        rather than rebuilt per request: read it, never write or keep it.
        """
        return self._loads

    def finish_request(
        self, request: EngineRequest, session: RequestSession, now: float
    ) -> None:
        """Commit the finished sequence and schedule the session's next
        round after its think-time gap (closed-loop within sessions)."""
        session.commit(request.full_tokens, now)
        self.schedule_next_round(request, now)

    def schedule_next_round(self, request: EngineRequest, now: float) -> None:
        """The closed loop alone: ``request`` ended at ``now`` (committed by
        :meth:`finish_request`, or lost with its replica)."""
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

    def drain_arrivals_upto(self, now: float, replica: int) -> None:
        """Admit every queued arrival event with time <= ``now`` immediately.

        Used by schedulers that make batching decisions at step boundaries
        (the token-level scheduler): arrivals tying with the step-end event
        sort after it (``REQUEST_ARRIVAL`` has the highest kind) but must
        be visible to the very next scheduling decision.  A freshly pulled
        session may itself arrive <= ``now``; the loop keeps draining until
        the head moves past it.  ``replica`` is the caller's: no sample has
        seen what its open step changed, so its load is re-read first.
        """
        if self._loads[replica] != DEAD_LOAD:
            scheduler = self.schedulers[replica]
            self._loads[replica] = scheduler.queue_depth + scheduler.n_running
        events = self.events
        while events:
            head = events.peek_entry()
            if head[ENTRY_TIME] > now or head[ENTRY_KIND] != EventKind.REQUEST_ARRIVAL:
                break
            self._n_events += 1
            self._on_arrival(events.pop_entry()[ENTRY_PAYLOAD], now)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _sample(self, replica: int, now: float, force: bool = False) -> None:
        """Record one replica's queue-depth / running change points and
        its load (their sum; a failed or draining replica stays dead)."""
        scheduler = self.schedulers[replica]
        depth = scheduler.queue_depth
        running = scheduler.n_running
        if self._loads[replica] != DEAD_LOAD:
            self._loads[replica] = depth + running
        if force or depth != self._last_depth[replica]:
            self._last_depth[replica] = depth
            self.results[replica].queue_depth_series.append((now, depth))
        if force or running != self._last_running[replica]:
            self._last_running[replica] = running
            self.results[replica].running_series.append((now, running))
