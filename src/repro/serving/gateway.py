"""Live asyncio serving gateway: concurrent sessions over one model.

Everything else in the repo replays traces offline through the simulation
kernel; this module is the bridge from "simulator" to "system".  The
gateway keeps a bounded batch of requests in flight and one step-loop
task advances them all through :meth:`ExactReuseServer.serve_steps` —
the same begin → prefill → decode → commit flow as the offline server,
so the paper's correctness statement (exact prefix reuse never changes
the output) carries over to live concurrent serving unchanged.

Layers, outermost first:

* **Admission control / backpressure** — ``submit`` either queues the
  request or sheds it immediately with a typed
  :class:`AdmissionRejected` (gateway-wide queue bound, per-tier queue
  bound, closed gateway).  Nothing blocks unboundedly at the front door.
* **SLO tiers** — each request names a :class:`SLOTier`.  A free slot
  takes runnable work from the lowest-priority-value tier first
  (latency-sensitive before batch), and a tier's ``max_concurrency``
  caps how many slots its requests may hold at once, so batch load
  cannot starve interactive traffic.
* **Response cache** — a request-level cache above the prefix cache
  (:mod:`repro.serving.response_cache`): deterministic repeats are
  answered from memory without queueing at all.
* **Transactional serving** — iteration-level batching
  (:mod:`repro.engine.iteration`) on the live path.  ``n_workers`` slots
  hold the requests in flight; one *sweep* advances each slot's serve
  generator one step, in slot order.  A sweep ends in a trip through the
  event loop only when it resolved a request's future or left a slot
  free — the only sweeps after which a submitter can have something to
  do — or when :data:`MAX_SWEEPS_PER_TRIP` sweeps have run without one,
  which bounds how long timers, sockets and cancels wait.  A serve whose
  steps expose ``silent`` (the model-less
  :class:`~repro.serving.replay.CacheOnlyServer`'s echo tokens: no cache
  call, no decision) lets the loop jump: when every slot holds a
  request that is not cancelled, ``k`` sweeps of silent steps (``k`` the
  fewest any slot has left, capped at the sweeps left before the next
  trip) become one ``skip(k)`` per slot and count as ``k`` sweeps.  Slot
  order is fixed and yields are counted, never timed, so the order of
  every ``begin``/``commit`` — and with it every hit and eviction —
  follows from the order of submissions, not from how fast the host is;
  jumping changes none of it, nor where a trip falls.
  Cancelling a submitted request closes its generator at the first sweep
  after its submitter next runs (closing the gateway without draining:
  at the next sweep), which aborts the open
  :class:`~repro.core.interfaces.RequestSession` — zero leaked pins, by
  construction.
"""

from __future__ import annotations

import asyncio
import functools
import time
from collections import deque
from dataclasses import dataclass, field, fields
from numbers import Integral
from typing import Any, Callable, Optional

import numpy as np

from repro.core.interfaces import Clock, as_token_array
from repro.serving.engine import GREEDY, DecodeParams, ServedRequest, ServeSteps
from repro.serving.response_cache import ResponseCache

#: The most sweeps the step loop runs back to back without a loop trip
#: while every slot stays busy and no request ends.  A trip costs
#: 2.5–3.5 µs of asyncio machinery; with the tiny NumPy model's ≈0.45 ms
#: decode step and four slots, 16 sweeps is ≈29 ms of latency for a timer,
#: a socket or a cancel.
MAX_SWEEPS_PER_TRIP = 16

# ----------------------------------------------------------------------
# Typed rejections
# ----------------------------------------------------------------------
class GatewayError(Exception):
    """Base class for gateway-surfaced errors."""


class AdmissionRejected(GatewayError):
    """The gateway refused to queue the request (load shed).

    ``reason`` is machine-readable: ``"queue_full"`` (gateway-wide bound),
    ``"tier_queue_full"`` (per-tier bound), ``"closed"`` (gateway shut
    down), or ``"shutdown"`` (queued, then the gateway closed without
    draining).
    """

    def __init__(self, reason: str, tier: Optional[str] = None, message: str = ""):
        self.reason = reason
        self.tier = tier
        if not message:
            message = f"request rejected ({reason})"
            if tier is not None:
                message += f" [tier={tier}]"
        super().__init__(message)


class GatewayClosed(AdmissionRejected):
    """Submission arrived after the gateway stopped accepting requests."""

    def __init__(self, message: str = "gateway is closed"):
        super().__init__("closed", None, message)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SLOTier:
    """One service tier.

    ``priority`` orders dequeueing (lower value = served first);
    ``max_concurrency`` caps this tier's simultaneously-running requests
    (0 = bounded only by ``n_workers``); ``max_queue_depth`` bounds this
    tier's queue (0 = bounded only by the gateway-wide queue).
    """

    name: str
    priority: int = 0
    max_concurrency: int = 0
    max_queue_depth: int = 0

    def __post_init__(self) -> None:
        if self.max_concurrency < 0 or self.max_queue_depth < 0:
            raise ValueError("tier bounds must be >= 0 (0 means unbounded)")


#: Default tier layout: latency-sensitive traffic outranks batch.
DEFAULT_TIERS = (
    SLOTier("interactive", priority=0),
    SLOTier("batch", priority=10),
)


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables for one :class:`Gateway`."""

    tiers: tuple[SLOTier, ...] = DEFAULT_TIERS
    n_workers: int = 4  # requests in flight (slots of the step loop)
    max_queue_depth: int = 256
    response_cache_entries: int = 1024  # 0 disables the response cache
    response_cache_bytes: int = 32 << 20

    def __post_init__(self) -> None:
        for spec in fields(self):  # a fractional count would fail only at first use
            value = getattr(self, spec.name)
            if spec.type in ("int", int) and not isinstance(value, Integral):
                raise ValueError(f"{spec.name} must be an integer, got {value!r}")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if not self.tiers:
            raise ValueError("at least one SLO tier is required")
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names: {names}")


# ----------------------------------------------------------------------
# Results & counters
# ----------------------------------------------------------------------
@dataclass
class GatewayStats:
    """Lifetime counters for one gateway instance."""

    submitted: int = 0
    admitted: int = 0
    shed: int = 0
    completed: int = 0
    aborted: int = 0
    failed: int = 0
    response_cache_hits: int = 0

    @property
    def in_flight_accounted(self) -> int:
        """Admitted requests whose outcome has not been counted yet."""
        return self.admitted - (self.completed + self.aborted + self.failed)

    def snapshot(self) -> dict[str, int]:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "aborted": self.aborted,
            "failed": self.failed,
            "response_cache_hits": self.response_cache_hits,
        }


@dataclass
class GatewayResult:
    """One request's outcome plus its gateway-side timing."""

    served: ServedRequest
    tier: str
    from_response_cache: bool
    queue_seconds: float
    ttft_seconds: float
    total_seconds: float

    # Convenience passthroughs so callers rarely need ``.served``.
    @property
    def output_tokens(self) -> np.ndarray:
        return self.served.output_tokens

    @property
    def full_sequence(self) -> np.ndarray:
        return self.served.full_sequence

    @property
    def hit_tokens(self) -> int:
        return self.served.hit_tokens

    @property
    def prefilled_tokens(self) -> int:
        return self.served.prefilled_tokens


@dataclass(eq=False)  # identity semantics: a cancel removes *this* item
class _QueueItem:
    serve: Callable[[], ServeSteps]  # the server's serve_steps, bound to the request
    tier: SLOTier
    submit_time: float
    future: "asyncio.Future[GatewayResult]" = field(repr=False)
    cancelled: bool = False
    # The step loop fills these in once the request holds a slot.
    steps: Optional[ServeSteps] = field(default=None, repr=False)
    start_time: float = 0.0
    first_token_time: Optional[float] = None


# ----------------------------------------------------------------------
# The gateway
# ----------------------------------------------------------------------
class Gateway:
    """Asyncio front door over a serve-steps backend.

    ``server`` is anything exposing the serve-steps protocol — a
    ``serve_steps(tokens, n_output, *, params, forced_outputs)`` returning
    :class:`~repro.serving.engine.ServeSteps` (a generator, or any
    iterator with the same ``next`` / ``close`` contract), plus a ``cache``
    attribute (the live :class:`~repro.serving.engine.ExactReuseServer`, or
    the model-less
    :class:`~repro.serving.replay.CacheOnlyServer` for trace replays,
    whose steps also expose ``silent`` / ``skip``).

    Use as an async context manager::

        async with Gateway(server) as gw:
            result = await gw.submit(tokens, n_output=8)

    ``__aexit__`` drains in-flight work and stops the step loop; after a
    clean drain the underlying cache reports zero open sessions and zero
    pinned nodes.
    """

    def __init__(
        self,
        server: Any,
        config: Optional[GatewayConfig] = None,
        *,
        clock: Clock = time.monotonic,
    ) -> None:
        self.server = server
        self.config = config or GatewayConfig()
        self.clock = clock
        self.stats = GatewayStats()
        self.response_cache: Optional[ResponseCache] = (
            ResponseCache(
                self.config.response_cache_entries, self.config.response_cache_bytes
            )
            if self.config.response_cache_entries > 0
            else None
        )
        self._tiers = {t.name: t for t in self.config.tiers}
        # Dequeue order: priority value, then declaration order.
        self._tier_order = sorted(
            self.config.tiers, key=lambda t: (t.priority, self.config.tiers.index(t))
        )
        self._queues: dict[str, deque[_QueueItem]] = {
            t.name: deque() for t in self.config.tiers
        }
        self._queued_total = 0
        self._running: dict[str, int] = {t.name: 0 for t in self.config.tiers}
        self._slots: list[Optional[_QueueItem]] = [None] * self.config.n_workers
        self._loop_task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "Gateway":
        """Spawn the step loop (idempotent).  A closed gateway raises
        :class:`GatewayClosed`: nothing would ever stop a loop started
        after :meth:`close`."""
        if self._closed:
            raise GatewayClosed()
        if self._loop_task is None:
            self._wake = asyncio.Event()
            self._idle = asyncio.Event()
            self._idle.set()
            self._loop_task = asyncio.create_task(self._step_loop(), name="step-loop")
        return self

    async def __aenter__(self) -> "Gateway":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.close(drain=exc_type is None)
        return False

    async def drain(self) -> None:
        """Wait until no request is queued or running."""
        if self._idle is not None:
            await self._idle.wait()

    async def close(self, drain: bool = True) -> None:
        """Stop accepting requests, then wind the step loop down.

        ``drain=True`` serves everything already admitted before
        returning.  ``drain=False`` sheds the queue (each waiter gets a
        typed ``AdmissionRejected(reason="shutdown")``) and cancels
        running requests at the next sweep, aborting their sessions.
        """
        self._closed = True
        if self._loop_task is None:
            return
        if drain:
            await self.drain()
        else:
            for queue in self._queues.values():
                while queue:
                    item = queue.popleft()
                    self._queued_total -= 1
                    self.stats.aborted += 1  # admitted, never served
                    if not item.future.done():
                        item.future.set_exception(
                            AdmissionRejected(
                                "shutdown",
                                item.tier.name,
                                "gateway shut down before the request was served",
                            )
                        )
            for item in filter(None, self._slots):
                item.cancelled = True
            self._maybe_idle()
            await self.drain()
        self._loop_task.cancel()
        await asyncio.gather(self._loop_task, return_exceptions=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        return self._queued_total

    @property
    def running(self) -> int:
        return sum(self._running.values())

    def tier_depths(self) -> dict[str, dict[str, int]]:
        """Per-tier queued/running snapshot (for telemetry)."""
        return {
            name: {"queued": len(self._queues[name]), "running": self._running[name]}
            for name in self._queues
        }

    # ------------------------------------------------------------------
    # The front door
    # ------------------------------------------------------------------
    async def submit(
        self,
        input_tokens: np.ndarray,
        n_output: int,
        *,
        tier: str = "interactive",
        params: DecodeParams = GREEDY,
        forced_outputs: Optional[np.ndarray] = None,
    ) -> GatewayResult:
        """Admit, queue, and serve one request; resolves when it finishes.

        Raises :class:`AdmissionRejected` when the request is shed at the
        door, :class:`GatewayClosed` after shutdown.  Cancelling the
        awaiting task cancels the request itself: if still queued it is
        dropped; if mid-decode the serve generator is closed, aborting the
        session with zero leaked pins.
        """
        tier_obj = self._tiers.get(tier)
        if tier_obj is None:  # a caller's bug, not a submission: not counted
            raise ValueError(
                f"unknown tier {tier!r}; configured tiers: {sorted(self._tiers)}"
            )
        self.stats.submitted += 1
        if self._closed:
            self.stats.shed += 1
            raise GatewayClosed()
        await self.start()
        tokens = as_token_array(input_tokens)
        submit_time = self.clock()

        # Response-cache fast path: deterministic repeats never queue.
        cacheable = (
            self.response_cache is not None
            and params.deterministic
            and forced_outputs is None
        )
        key = None
        if cacheable:
            key = self.response_cache.make_key(tokens, n_output, params)
            cached = self.response_cache.get(key)
            if cached is not None:
                self.stats.response_cache_hits += 1
                elapsed = self.clock() - submit_time
                return GatewayResult(
                    served=cached,
                    tier=tier,
                    from_response_cache=True,
                    queue_seconds=0.0,
                    ttft_seconds=elapsed,
                    total_seconds=elapsed,
                )

        # Admission control: bounded queues, typed load-shedding.
        queue = self._queues[tier]
        if self._queued_total >= self.config.max_queue_depth:
            self.stats.shed += 1
            raise AdmissionRejected("queue_full", tier)
        if tier_obj.max_queue_depth and len(queue) >= tier_obj.max_queue_depth:
            self.stats.shed += 1
            raise AdmissionRejected("tier_queue_full", tier)

        item = _QueueItem(
            serve=functools.partial(
                self.server.serve_steps,
                tokens,
                n_output,
                params=params,
                forced_outputs=forced_outputs,
            ),
            tier=tier_obj,
            submit_time=submit_time,
            future=asyncio.get_running_loop().create_future(),
        )
        queue.append(item)
        self._queued_total += 1
        self.stats.admitted += 1
        self._idle.clear()
        self._wake.set()
        try:
            result = await item.future
        except asyncio.CancelledError:
            item.cancelled = True  # in a slot: the step loop aborts it
            if item in queue:  # still queued: give its admission slot back now
                queue.remove(item)
                self._queued_total -= 1
                self.stats.aborted += 1
                self._maybe_idle()
            raise
        if result.from_response_cache is False and key is not None:
            # Populate the response cache from the cold serve.  Done on
            # the submit side so the step loop stays policy-free.
            self.response_cache.put(key, result.served)
        return result

    # ------------------------------------------------------------------
    # The step loop
    # ------------------------------------------------------------------
    def _next_item(self) -> Optional[_QueueItem]:
        """Move the highest-priority runnable request from its queue to the
        running set, honouring per-tier concurrency caps.  (No queued item
        is cancelled: ``submit`` and ``close`` remove what they cancel.)"""
        for tier in self._tier_order:
            if tier.max_concurrency and self._running[tier.name] >= tier.max_concurrency:
                continue
            queue = self._queues[tier.name]
            if queue:
                item = queue.popleft()
                self._queued_total -= 1
                self._running[tier.name] += 1
                item.start_time = self.clock()
                return item
        return None

    def _maybe_idle(self) -> None:
        if self._queued_total == 0 and self.running == 0:
            self._idle.set()

    async def _step_loop(self) -> None:
        """Sweep the slots forever: each advances one step, in slot order; a
        slot whose request ends takes its successor's first step in the same
        sweep.  The event loop gets a turn after a sweep that ended a request
        or left a slot free, and after every :data:`MAX_SWEEPS_PER_TRIP`
        sweeps without one.  Any other trip would wake no submitter: a
        submitter waits on a future only ``_finish`` resolves.

        When every slot's next ``k`` steps are silent (see
        :meth:`_silent_sweeps`), those ``k`` sweeps are one jump: each slot
        skips ``k`` steps, and the jump counts as ``k`` sweeps toward the
        trip bound.  Such sweeps end nothing and free no slot, so every
        ``begin``/``commit``, first token, cancel and trip stays where the
        sweeps would have put it."""
        slots = self._slots
        quiet = 0  # sweeps since the last loop trip
        try:
            while True:
                ended = False
                jump = self._silent_sweeps(MAX_SWEEPS_PER_TRIP - quiet)
                if jump:
                    for item in slots:
                        item.steps.skip(jump)
                    quiet += jump
                else:
                    for i, item in enumerate(slots):
                        while True:
                            if item is None:
                                if not self._queued_total:
                                    break
                                item = slots[i] = self._next_item()
                                if item is None:
                                    break
                            if item.cancelled:
                                self._finish(item)
                            else:
                                try:
                                    if item.steps is None:
                                        item.steps = item.serve()
                                    next(item.steps)  # blocking prefill/decode work
                                except StopIteration as stop:
                                    self._finish(item, served=stop.value)
                                except Exception as exc:  # fails this request only
                                    self._finish(item, error=exc)
                                else:
                                    if item.first_token_time is None:
                                        item.first_token_time = self.clock()
                                    break
                            ended = True
                            item = slots[i] = None
                    quiet += 1
                if ended or quiet == MAX_SWEEPS_PER_TRIP or not all(slots):
                    quiet = 0
                    if any(slots):
                        await asyncio.sleep(0)
                    else:
                        self._wake.clear()
                        await self._wake.wait()
        finally:
            # The task was cancelled (or died): abort whatever is in flight.
            for item in filter(None, slots):
                self._finish(item)
            slots[:] = [None] * len(slots)

    def _silent_sweeps(self, limit: int) -> int:
        """How many sweeps from here on would only run silent steps, at most
        ``limit``: 0 unless every slot holds a request that is not cancelled
        and whose steps expose ``silent`` (the remaining steps that touch no
        cache and surface no first token; ``CacheOnlyServer``'s echoes).  A
        generator exposes nothing, so a model-backed or wrapped server is
        always swept step by step."""
        for item in self._slots:
            if item is None or item.cancelled:
                return 0
            silent = getattr(item.steps, "silent", 0)
            if silent < limit:
                if not silent:
                    return 0
                limit = silent
        return limit

    def _finish(
        self,
        item: _QueueItem,
        served: Optional[ServedRequest] = None,
        error: Optional[Exception] = None,
    ) -> None:
        """Resolve a request leaving its slot: served, failed, or (neither) aborted."""
        if item.steps is not None:
            # A no-op after a return or a raise.  On the abort path it raises
            # GeneratorExit at the suspended yield, which unwinds the `with
            # cache.begin` block: the session aborts, every pin is released.
            item.steps.close()
        self._running[item.tier.name] -= 1
        if served is not None:
            self.stats.completed += 1
            end = self.clock()
            # n_output == 0, no token ever surfaced: first result at completion.
            first = end if item.first_token_time is None else item.first_token_time
            result = GatewayResult(
                served=served,
                tier=item.tier.name,
                from_response_cache=False,
                queue_seconds=item.start_time - item.submit_time,
                ttft_seconds=first - item.submit_time,
                total_seconds=end - item.submit_time,
            )
            if not item.future.done():
                item.future.set_result(result)
        elif error is not None:
            self.stats.failed += 1
            if not item.future.done():
                item.future.set_exception(error)
        else:
            self.stats.aborted += 1
            item.future.cancel()
        self._maybe_idle()
