"""Asyncio integration suite for the live serving gateway.

Covers the acceptance bar end to end: many concurrent clients served
byte-identically to a cache-less reference, cancellation mid-decode
aborting the session with zero leaked pins, overload shedding with typed
rejections, response-cache hits byte-identical to cold serves, SLO-tier
scheduling, and the socket front-end.  Every test runs its own event loop
via ``asyncio.run`` (no asyncio pytest plugin required).
"""

from __future__ import annotations

import asyncio
import types

import numpy as np
import pytest

from repro.core.cache import MarconiCache
from repro.models.presets import hybrid_7b
from repro.nn.hybrid import HybridModel
from repro.serving import (
    AdmissionRejected,
    CacheOnlyServer,
    DecodeParams,
    ExactReuseServer,
    Gateway,
    GatewayClient,
    GatewayClientError,
    GatewayClosed,
    GatewayConfig,
    GatewayServer,
    ResponseCache,
    SLOTier,
)
from repro.serving import netserve
from repro.serving.engine import ServedRequest
from repro.serving.gateway import MAX_SWEEPS_PER_TRIP
from repro.metrics import gateway_summary_dict

from _drain import assert_drained
from _servers import PassThroughServer


def run(coro):
    return asyncio.run(coro)


class SignalingServer(ExactReuseServer):
    """ExactReuseServer that raises a flag after each request's first token
    (lets tests deterministically cancel mid-decode)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.first_token_event: asyncio.Event | None = None

    def serve_steps(self, *args, **kwargs):
        inner = super().serve_steps(*args, **kwargs)

        def wrapped():
            try:
                while True:
                    try:
                        token = next(inner)
                    except StopIteration as stop:
                        return stop.value
                    if self.first_token_event is not None:
                        self.first_token_event.set()
                    yield token
            finally:
                inner.close()

        return wrapped()


class TrackingServer(CacheOnlyServer):
    """CacheOnlyServer that records serve order and peak concurrency."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.serve_order: list[int] = []
        self.active = 0
        self.max_active = 0

    def serve_steps(self, input_tokens, n_output, **kwargs):
        self.serve_order.append(int(np.asarray(input_tokens)[0]))
        inner = super().serve_steps(input_tokens, n_output, **kwargs)

        def wrapped():
            self.active += 1
            self.max_active = max(self.max_active, self.active)
            try:
                while True:
                    try:
                        token = next(inner)
                    except StopIteration as stop:
                        return stop.value
                    yield token
            finally:
                self.active -= 1
                inner.close()

        return wrapped()


TRIP = "|"


class RecordingServer(CacheOnlyServer):
    """CacheOnlyServer that logs every resumption as ``(request, step)``
    (``request`` is the input's first token; a request's last entry is the
    resumption that commits and returns).  ``fail_at`` makes one resumption
    raise instead."""

    def __init__(self, *args, fail_at=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.log: list = []
        self.fail_at = fail_at

    def serve_steps(self, input_tokens, n_output, **kwargs):
        request = int(np.asarray(input_tokens)[0])
        inner = super().serve_steps(input_tokens, n_output, **kwargs)

        def wrapped():
            step = 0
            try:
                while True:
                    self.log.append((request, step))
                    if (request, step) == self.fail_at:
                        raise RuntimeError(f"backend failed on {request}")
                    step += 1
                    try:
                        token = next(inner)
                    except StopIteration as stop:
                        return stop.value
                    yield token
            finally:
                inner.close()

        return wrapped()

    async def mark_trips(self):
        """Log a marker once per event-loop trip.  Started before the
        gateway, it runs ahead of the step loop in every trip, so what the
        log holds between two markers is the sweeps of one stretch without
        a trip."""
        while True:
            self.log.append(TRIP)
            await asyncio.sleep(0)

    def steps(self) -> list[tuple[int, int]]:
        """Every resumption, in order."""
        return [e for e in self.log if e != TRIP]

    def trips(self) -> list[list[list[tuple[int, int]]]]:
        """The sweeps between two trips, one list of sweeps per trip.  Inside
        a stretch without a trip every slot stays busy, so a sweep opens on
        the request that holds slot 0: a new sweep starts where a request is
        resumed a second time."""
        out, sweeps, sweep = [], [], []
        for entry in self.log + [TRIP]:
            if entry == TRIP:
                if sweep:
                    out.append(sweeps + [sweep])
                sweeps, sweep = [], []
                continue
            if any(request == entry[0] for request, _ in sweep):
                sweeps.append(sweep)
                sweep = []
            sweep.append(entry)
        return out

    def sweeps(self) -> list[list[tuple[int, int]]]:
        return [sweep for trip in self.trips() for sweep in trip]

    def steps_of(self, request: int) -> list[int]:
        return [step for r, step in self.steps() if r == request]


def waking(server: RecordingServer, n_workers: int) -> list[list[bool]]:
    """Per trip, per sweep: did the sweep end a request (hold its last
    resumption) or leave a slot free (resume fewer than ``n_workers``
    requests that go on)?  Exact for a log without cancels, which end a
    request without resuming it."""
    last = dict(server.steps())

    def wakes(sweep) -> bool:
        ended = sum(step == last[request] for request, step in sweep)
        return ended > 0 or len(sweep) - ended < n_workers

    return [[wakes(sweep) for sweep in trip] for trip in server.trips()]


def assert_trip_rule(server: RecordingServer, n_workers: int) -> None:
    """A trip follows every sweep that ended a request or left a slot free,
    and never more than ``MAX_SWEEPS_PER_TRIP`` sweeps run without one."""
    for trip in waking(server, n_workers):
        assert len(trip) <= MAX_SWEEPS_PER_TRIP
        assert not any(trip[:-1])
        assert trip[-1] or len(trip) == MAX_SWEEPS_PER_TRIP


def numbered(i: int, tokens, n: int = 10) -> np.ndarray:
    """A request whose first token is its number ``i``."""
    return np.concatenate([[i], tokens(n, seed=300 + i)]).astype(np.int32)


class TestStepLoop:
    """The gateway serves from one task: one sweep steps each of the
    ``n_workers`` slots once, in slot order, and the event loop gets a turn
    only after a sweep that ended a request or left a slot free, or after
    ``MAX_SWEEPS_PER_TRIP`` sweeps without one."""

    def test_sweep_is_slot_order_round_robin(self, tiny, tokens):
        """Three slots, five requests: each sweep advances the slots in
        order, and the successor of a request that ends takes its first step
        inside the same sweep (where a worker task would have)."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = RecordingServer(cache)
        n_outputs = [1, 3, 2, 2, 1]

        async def scenario():
            marker = asyncio.create_task(server.mark_trips())
            async with Gateway(server, GatewayConfig(n_workers=3)) as gw:
                results = await asyncio.gather(
                    *[gw.submit(numbered(i, tokens), n) for i, n in enumerate(n_outputs)]
                )
            marker.cancel()
            return results

        results = run(scenario())
        assert server.steps() == [
            (0, 0), (1, 0), (2, 0),  # slots 0, 1, 2 take requests 0, 1, 2
            (0, 1), (3, 0), (1, 1), (2, 1),  # 0 ends: slot 0 starts 3 at once
            (3, 1), (1, 2), (2, 2), (4, 0),  # 2 ends: slot 2 starts 4
            (3, 2), (1, 3), (4, 1),  # the last three end; nothing is queued
        ]
        # The first sweep ends nothing and fills every slot: no trip.
        assert [len(trip) for trip in server.trips()] == [2, 1, 1]
        assert_trip_rule(server, n_workers=3)
        assert [len(r.output_tokens) for r in results] == n_outputs
        assert_drained([cache])

    def test_a_successor_starts_in_the_sweep_its_predecessor_ended_in(
        self, tiny, tokens
    ):
        """Two slots, three teacher-forced requests: one step per slot per
        sweep, request 2 starts in the sweep request 1 ends in, and the
        outputs are the forced tokens."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = RecordingServer(cache)
        forced = [tokens(n, seed=400 + i) for i, n in enumerate([7, 4, 5])]

        async def scenario():
            marker = asyncio.create_task(server.mark_trips())
            async with Gateway(server, GatewayConfig(n_workers=2)) as gw:
                results = await asyncio.gather(
                    *[
                        gw.submit(numbered(i, tokens), 0, forced_outputs=f)
                        for i, f in enumerate(forced)
                    ]
                )
            marker.cancel()
            return results

        results = run(scenario())
        assert server.steps() == [
            *[(r, k) for k in range(4) for r in (0, 1)],
            (0, 4), (1, 4), (2, 0),  # 1 ends: slot 1 starts 2 at once
            (0, 5), (2, 1),
            (0, 6), (2, 2),
            (0, 7), (2, 3),  # 0 ends with nothing queued: slot 0 stays free
            (2, 4),
            (2, 5),
        ]
        assert_trip_rule(server, n_workers=2)
        for result, f in zip(results, forced):
            assert result.output_tokens.tobytes() == f.tobytes()
        assert_drained([cache])

    def test_a_busy_loop_trips_every_max_sweeps(self, tiny, tokens):
        """Every slot busy on requests far longer than the bound: the ticker
        (the marker task) still gets a turn after every
        ``MAX_SWEEPS_PER_TRIP`` sweeps."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = RecordingServer(cache)
        n = 6 * MAX_SWEEPS_PER_TRIP + 4  # n tokens: n + 1 resumptions each

        async def scenario():
            marker = asyncio.create_task(server.mark_trips())
            async with Gateway(server, GatewayConfig(n_workers=2)) as gw:
                await asyncio.gather(*[gw.submit(numbered(i, tokens), n) for i in (0, 1)])
            marker.cancel()

        run(scenario())
        assert [len(trip) for trip in server.trips()] == [MAX_SWEEPS_PER_TRIP] * 6 + [5]
        assert_trip_rule(server, n_workers=2)

    def test_a_closed_loop_trips_only_when_a_submitter_can_run(self, tiny, tokens):
        """Twelve clients of three rounds each over four slots: trips are at
        most one per ``MAX_SWEEPS_PER_TRIP`` sweeps plus one per sweep that
        ended a request or freed a slot — not one per sweep."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = RecordingServer(cache)
        lengths = np.random.default_rng(5).integers(10, 80, size=(12, 3))

        async def client(gw, c):
            for k, n in enumerate(lengths[c]):
                await gw.submit(numbered(3 * c + k, tokens), int(n))

        async def scenario():
            marker = asyncio.create_task(server.mark_trips())
            async with Gateway(server, GatewayConfig(n_workers=4)) as gw:
                await asyncio.gather(*[client(gw, c) for c in range(12)])
                stats = gw.stats.snapshot()
            marker.cancel()
            return stats

        stats = run(scenario())
        assert stats["completed"] == 36
        assert_trip_rule(server, n_workers=4)
        flags = waking(server, n_workers=4)
        sweeps = sum(map(len, flags))
        assert len(flags) <= -(-sweeps // MAX_SWEEPS_PER_TRIP) + sum(map(sum, flags))

    def test_a_cancel_lands_within_max_sweeps_while_every_slot_is_busy(
        self, tiny, tokens
    ):
        """Both slots hold requests far longer than the bound: a cancel
        reaches the step loop at its next trip, at most
        ``MAX_SWEEPS_PER_TRIP`` sweeps later, and leaves no pin behind."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = RecordingServer(cache)
        n = 10 * MAX_SWEEPS_PER_TRIP

        async def scenario():
            async with Gateway(server, GatewayConfig(n_workers=2)) as gw:
                doomed = asyncio.create_task(gw.submit(numbered(0, tokens), n))
                other = asyncio.create_task(gw.submit(numbered(1, tokens), n))
                while not server.steps_of(0):
                    await asyncio.sleep(0)
                at_cancel = len(server.steps_of(0))
                doomed.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await doomed
                survivor = await other
                await gw.drain()
                return at_cancel, survivor, gw.stats.snapshot()

        at_cancel, survivor, stats = run(scenario())
        taken = len(server.steps_of(0))
        assert at_cancel <= taken <= at_cancel + MAX_SWEEPS_PER_TRIP < n
        assert len(survivor.output_tokens) == n
        assert stats["aborted"] == 1 and stats["completed"] == 1
        assert_drained([cache])

    def test_cancelling_the_loop_task_closes_in_flight_generators(self, tiny, tokens):
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = RecordingServer(cache)

        async def scenario():
            gw = Gateway(server, GatewayConfig(n_workers=2))
            await gw.start()
            tasks = [
                asyncio.create_task(gw.submit(numbered(i, tokens), 50)) for i in range(3)
            ]
            while len(server.log) < 6:
                await asyncio.sleep(0)
            assert cache.open_sessions == 2 and gw.queued == 1
            gw._loop_task.cancel()
            tasks[2].cancel()  # nothing is left to serve the queued one
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            return outcomes, gw.running, gw.queued, gw.stats.snapshot()

        outcomes, running, queued, stats = run(scenario())
        assert all(isinstance(o, asyncio.CancelledError) for o in outcomes)
        assert running == 0 and queued == 0
        assert stats["aborted"] == 3 and stats["completed"] == 0
        assert_drained([cache])

    def test_a_failing_request_fails_alone(self, tiny, tokens):
        """The backend raises on one request: its submitter gets the error,
        its session is aborted, and the other slots run to completion."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = RecordingServer(cache, fail_at=(1, 2))
        gw = Gateway(server, GatewayConfig(n_workers=3))

        async def scenario():
            async with gw:
                outcomes = await asyncio.gather(
                    *[gw.submit(numbered(i, tokens), 5) for i in range(4)],
                    return_exceptions=True,
                )
                return outcomes, gw.stats.snapshot()

        outcomes, stats = run(scenario())
        assert isinstance(outcomes[1], RuntimeError)
        assert "backend failed on 1" in str(outcomes[1])
        for i in (0, 2, 3):
            assert len(outcomes[i].output_tokens) == 5
        assert stats["failed"] == 1 and stats["completed"] == 3
        assert stats["aborted"] == 0
        gw.check_integrity()
        assert server.steps_of(1) == [0, 1, 2]
        assert_drained([cache])

    def test_zero_output_requests_never_surface_a_token(self, tiny, tokens):
        """n_output=0 is begin-and-commit in one resumption: the slot moves
        on inside the same sweep, the input is committed (a follow-up hits
        all of it), and first-result time is completion time."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = RecordingServer(cache)
        queries = [numbered(i, tokens, n=20) for i in range(3)]

        async def scenario():
            marker = asyncio.create_task(server.mark_trips())
            async with Gateway(server, GatewayConfig(n_workers=1)) as gw:
                results = await asyncio.gather(*[gw.submit(q, 0) for q in queries])
                follow = await gw.submit(np.concatenate([queries[1], tokens(5, seed=9)]), 1)
            marker.cancel()
            return results, follow

        results, follow = run(scenario())
        assert server.sweeps()[0] == [(0, 0), (1, 0), (2, 0)]  # one slot, one sweep
        for query, result in zip(queries, results):
            assert result.output_tokens.shape == (0,)
            np.testing.assert_array_equal(result.full_sequence, query)
            assert 0.0 <= result.queue_seconds <= result.ttft_seconds
            assert result.ttft_seconds <= result.total_seconds
        assert follow.hit_tokens == len(queries[1])
        assert 0.0 <= follow.ttft_seconds <= follow.total_seconds
        assert_drained([cache])


class TestConcurrentCorrectness:
    def test_32_concurrent_clients_byte_identical(self, tiny, tokens):
        """The acceptance bar: >= 32 concurrent clients, every output
        byte-identical to a cache-less reference model, zero open sessions
        and zero pins after drain."""
        server = ExactReuseServer(tiny, int(1e9), seed=0)
        reference = HybridModel(tiny, seed=0)
        shared = tokens(30, seed=1) % tiny.vocab_size
        queries = [
            np.concatenate([shared, tokens(8, seed=100 + i) % tiny.vocab_size])
            if i % 2
            else tokens(24, seed=200 + i) % tiny.vocab_size
            for i in range(32)
        ]

        async def scenario():
            async with Gateway(server, GatewayConfig(n_workers=4)) as gw:
                results = await asyncio.gather(
                    *[gw.submit(q, 3) for q in queries]
                )
                return results

        results = run(scenario())
        assert len(results) == 32
        for query, result in zip(queries, results):
            expected, _ = reference.generate(query, 3)
            np.testing.assert_array_equal(result.output_tokens, expected)
            np.testing.assert_array_equal(
                result.full_sequence, np.concatenate([query, expected])
            )
        assert_drained([server.cache])

    def test_interleaving_actually_happens(self, tiny, tokens):
        """With several workers and per-token yields, decode steps of
        different requests interleave (the gateway is concurrent, not a
        serializer)."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = TrackingServer(cache)
        reqs = [
            np.concatenate([[i], tokens(10, seed=i)]).astype(np.int32)
            for i in range(6)
        ]

        async def scenario():
            async with Gateway(server, GatewayConfig(n_workers=4)) as gw:
                await asyncio.gather(*[gw.submit(q, 6) for q in reqs])

        run(scenario())
        assert server.max_active > 1
        assert_drained([cache])

    def test_timing_fields_sane(self, tiny, tokens):
        server = ExactReuseServer(tiny, int(1e9), seed=0)

        async def scenario():
            async with Gateway(server) as gw:
                return await gw.submit(tokens(16, seed=3) % tiny.vocab_size, 2)

        result = run(scenario())
        assert result.queue_seconds >= 0.0
        assert 0.0 <= result.ttft_seconds <= result.total_seconds
        assert result.tier == "interactive"
        assert not result.from_response_cache


class TestCancellation:
    def test_cancel_mid_decode_aborts_session_zero_pins(self, tiny, tokens):
        server = SignalingServer(tiny, int(1e9), seed=0)
        query = tokens(20, seed=9) % tiny.vocab_size

        async def scenario():
            server.first_token_event = asyncio.Event()
            async with Gateway(server, GatewayConfig(n_workers=1)) as gw:
                task = asyncio.create_task(gw.submit(query, 64))
                await server.first_token_event.wait()  # decode is running
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                await gw.drain()
                return gw.stats.snapshot()

        stats = run(scenario())
        assert stats["aborted"] == 1
        assert stats["completed"] == 0
        assert_drained([server.cache])

    def test_cancel_while_queued_never_opens_session(self, tiny, tokens):
        """Cancelling a request that is still waiting in the queue drops it
        before any session is begun."""
        server = SignalingServer(tiny, int(1e9), seed=0)

        async def scenario():
            server.first_token_event = asyncio.Event()
            async with Gateway(server, GatewayConfig(n_workers=1)) as gw:
                long_task = asyncio.create_task(
                    gw.submit(tokens(20, seed=10) % tiny.vocab_size, 64)
                )
                await server.first_token_event.wait()
                queued_task = asyncio.create_task(
                    gw.submit(tokens(20, seed=11) % tiny.vocab_size, 4)
                )
                await asyncio.sleep(0)  # let it enqueue
                assert gw.queued == 1
                queued_task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await queued_task
                result = await long_task
                await gw.drain()
                return result, gw.stats.snapshot()

        result, stats = run(scenario())
        assert len(result.output_tokens) == 64
        assert stats["aborted"] == 1 and stats["completed"] == 1
        assert_drained([server.cache])

    def test_cancelled_queued_requests_free_their_admission_slots(
        self, tiny, tokens
    ):
        """A request cancelled while queued leaves the queue at once: dead
        entries must not fill ``max_queue_depth`` and shed live traffic."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        # Swept step by step: a cache-only serve's echoes would be jumped, and
        # the long request would end within the trip that starts it.
        config = GatewayConfig(n_workers=1, max_queue_depth=2)
        gw = Gateway(PassThroughServer(cache), config)

        async def scenario():
            async with gw:
                long_task = asyncio.create_task(gw.submit(tokens(20, seed=14), 5000))
                while gw.running == 0:  # until it holds the only slot
                    await asyncio.sleep(0)
                doomed = [
                    asyncio.create_task(gw.submit(tokens(20, seed=15 + i), 4))
                    for i in range(2)
                ]
                await asyncio.sleep(0)  # both enqueue: the queue is full
                assert gw.queued == 2
                gw.check_integrity()
                for task in doomed:
                    task.cancel()
                outcomes = await asyncio.gather(*doomed, return_exceptions=True)
                assert all(isinstance(o, asyncio.CancelledError) for o in outcomes)
                assert gw.queued == 0
                assert gw.tier_depths()["interactive"]["queued"] == 0
                fresh = await gw.submit(tokens(20, seed=17), 4)  # not shed
                await long_task
                return fresh, gw.stats.snapshot()

        fresh, stats = run(scenario())
        assert len(fresh.output_tokens) == 4
        assert stats["aborted"] == 2 and stats["completed"] == 2
        assert stats["shed"] == 0
        gw.check_integrity()
        assert_drained([cache])

    def test_close_without_drain_sheds_queue_and_aborts_running(
        self, tiny, tokens
    ):
        server = SignalingServer(tiny, int(1e9), seed=0)
        gw = Gateway(server, GatewayConfig(n_workers=1))

        async def scenario():
            server.first_token_event = asyncio.Event()
            await gw.start()
            running = asyncio.create_task(
                gw.submit(tokens(20, seed=12) % tiny.vocab_size, 64)
            )
            await server.first_token_event.wait()
            queued = [
                asyncio.create_task(
                    gw.submit(tokens(20, seed=13 + i) % tiny.vocab_size, 4)
                )
                for i in range(3)
            ]
            await asyncio.sleep(0)
            await gw.close(drain=False)
            outcomes = await asyncio.gather(
                running, *queued, return_exceptions=True
            )
            return outcomes, gw.stats.snapshot()

        outcomes, stats = run(scenario())
        # The running request was aborted mid-decode; the queued ones got
        # typed shutdown rejections.
        assert isinstance(outcomes[0], asyncio.CancelledError)
        for outcome in outcomes[1:]:
            assert isinstance(outcome, AdmissionRejected)
            assert outcome.reason == "shutdown"
        assert stats["aborted"] == 4
        gw.check_integrity()
        assert_drained([server.cache])


class TestAdmissionControl:
    def test_overload_sheds_with_typed_rejection(self, tiny, tokens):
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        gw = Gateway(CacheOnlyServer(cache), GatewayConfig(n_workers=1, max_queue_depth=3))

        async def scenario():
            await gw.start()
            outcomes = await asyncio.gather(
                *[
                    gw.submit(tokens(12, seed=20 + i), 4)
                    for i in range(10)
                ],
                return_exceptions=True,
            )
            await gw.close()
            return outcomes, gw.stats.snapshot()

        outcomes, stats = run(scenario())
        shed = [o for o in outcomes if isinstance(o, AdmissionRejected)]
        served = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(shed) == 7 and len(served) == 3
        for rejection in shed:
            assert rejection.reason == "queue_full"
        assert stats["shed"] == 7 and stats["completed"] == 3
        gw.check_integrity()
        assert_drained([cache])

    def test_per_tier_queue_bound(self, tiny, tokens):
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        config = GatewayConfig(
            tiers=(
                SLOTier("interactive", priority=0),
                SLOTier("batch", priority=10, max_queue_depth=1),
            ),
            n_workers=1,
            max_queue_depth=100,
        )

        async def scenario():
            gw = Gateway(CacheOnlyServer(cache), config)
            await gw.start()
            outcomes = await asyncio.gather(
                *[
                    gw.submit(tokens(12, seed=30 + i), 2, tier="batch")
                    for i in range(4)
                ],
                return_exceptions=True,
            )
            await gw.close()
            return outcomes

        outcomes = run(scenario())
        rejected = [o for o in outcomes if isinstance(o, AdmissionRejected)]
        assert rejected and all(r.reason == "tier_queue_full" for r in rejected)
        assert all(r.tier == "batch" for r in rejected)

    def test_submit_after_close_raises_gateway_closed(self, tiny, tokens):
        async def scenario():
            gw = Gateway(CacheOnlyServer(MarconiCache(tiny, int(1e9), alpha=1.0)))
            await gw.start()
            await gw.close()
            with pytest.raises(GatewayClosed):
                await gw.submit(tokens(8, seed=1), 2)

        run(scenario())

    def test_a_closed_gateway_starts_no_step_loop(self, tiny, tokens):
        """Closed before it ever ran: submit and start raise, and no
        step-loop task is left pending with nothing to cancel it."""

        gw = Gateway(CacheOnlyServer(MarconiCache(tiny, int(1e9), alpha=1.0)))

        async def scenario():
            await gw.close()
            with pytest.raises(GatewayClosed):
                await gw.submit(tokens(8, seed=1), 2)
            with pytest.raises(GatewayClosed):
                await gw.start()
            return asyncio.all_tasks() - {asyncio.current_task()}, gw.stats.snapshot()

        left, stats = run(scenario())
        assert left == set()
        assert stats["submitted"] == stats["shed"] == 1
        gw.check_integrity()

    def test_unknown_tier_rejected(self, tiny, tokens):
        gw = Gateway(CacheOnlyServer(MarconiCache(tiny, int(1e9), alpha=1.0)))

        async def scenario():
            async with gw:
                with pytest.raises(ValueError, match="unknown tier"):
                    await gw.submit(tokens(8, seed=1), 2, tier="platinum")
                await gw.submit(tokens(8, seed=1), 2)
                return gw.stats.snapshot()

        stats = run(scenario())
        # The bad call was a caller's bug, not a submission.
        assert stats["submitted"] == 1
        gw.check_integrity()


class TestSLOTiers:
    def test_interactive_overtakes_queued_batch(self, tiny, tokens):
        """With one worker busy, a later interactive arrival is served
        before batch requests that queued first."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = TrackingServer(cache)

        async def scenario():
            async with Gateway(
                server, GatewayConfig(n_workers=1, max_queue_depth=100)
            ) as gw:
                tasks = [
                    asyncio.create_task(
                        gw.submit(
                            np.concatenate([[i], tokens(10, seed=40 + i)]).astype(
                                np.int32
                            ),
                            2,
                            tier="batch",
                        )
                    )
                    for i in range(3)
                ]
                # Submitted last, after the batch requests are queued:
                tasks.append(
                    asyncio.create_task(
                        gw.submit(
                            np.concatenate([[99], tokens(10, seed=50)]).astype(
                                np.int32
                            ),
                            2,
                            tier="interactive",
                        )
                    )
                )
                await asyncio.gather(*tasks)

        run(scenario())
        order = server.serve_order
        # The first batch request may already be running, but the
        # interactive one outranks every still-queued batch request.
        assert order.index(99) <= 1

    def test_tier_max_concurrency_enforced(self, tiny, tokens):
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = TrackingServer(cache)
        config = GatewayConfig(
            tiers=(SLOTier("batch", priority=0, max_concurrency=1),),
            n_workers=4,
        )

        async def scenario():
            async with Gateway(server, config) as gw:
                await asyncio.gather(
                    *[
                        gw.submit(
                            np.concatenate([[i], tokens(10, seed=60 + i)]).astype(
                                np.int32
                            ),
                            6,
                            tier="batch",
                        )
                        for i in range(5)
                    ]
                )

        run(scenario())
        assert server.max_active == 1
        assert cache.open_sessions == 0


class TestResponseCache:
    def test_hit_byte_identical_to_cold_serve(self, tiny, tokens):
        server = ExactReuseServer(tiny, int(1e9), seed=0)
        query = tokens(24, seed=70) % tiny.vocab_size

        async def scenario():
            async with Gateway(server) as gw:
                cold = await gw.submit(query, 5)
                warm = await gw.submit(query, 5)
                return cold, warm, gw.stats.snapshot()

        cold, warm, stats = run(scenario())
        assert not cold.from_response_cache and warm.from_response_cache
        np.testing.assert_array_equal(warm.output_tokens, cold.output_tokens)
        np.testing.assert_array_equal(warm.full_sequence, cold.full_sequence)
        assert warm.output_tokens.tobytes() == cold.output_tokens.tobytes()
        assert stats["response_cache_hits"] == 1
        # The hit never touched the model/prefix cache: only one serve ran.
        assert stats["completed"] == 1
        assert server.cache.stats.lookups == 1

    def test_different_n_output_is_a_different_request(self, tiny, tokens):
        server = ExactReuseServer(tiny, int(1e9), seed=0)
        query = tokens(24, seed=71) % tiny.vocab_size

        async def scenario():
            async with Gateway(server) as gw:
                first = await gw.submit(query, 3)
                second = await gw.submit(query, 6)
                return first, second

        first, second = run(scenario())
        assert not second.from_response_cache
        np.testing.assert_array_equal(
            second.output_tokens[:3], first.output_tokens
        )

    def test_sampled_requests_bypass_response_cache(self, tiny, tokens):
        """temperature > 0 means independent draws: never served from the
        response cache, even with a fixed seed."""
        server = ExactReuseServer(tiny, int(1e9), seed=0)
        query = tokens(24, seed=72) % tiny.vocab_size
        params = DecodeParams(temperature=0.8, seed=123)

        async def scenario():
            async with Gateway(server) as gw:
                first = await gw.submit(query, 4, params=params)
                second = await gw.submit(query, 4, params=params)
                return first, second, gw.stats.snapshot()

        first, second, stats = run(scenario())
        assert not first.from_response_cache
        assert not second.from_response_cache
        assert stats["response_cache_hits"] == 0
        assert stats["completed"] == 2
        # Seeded sampling is reproducible in isolation — the cold serves
        # agree — but reuse policy treats them as independent draws.
        np.testing.assert_array_equal(first.output_tokens, second.output_tokens)

    def test_response_cache_disabled(self, tiny, tokens):
        server = ExactReuseServer(tiny, int(1e9), seed=0)
        query = tokens(16, seed=73) % tiny.vocab_size

        async def scenario():
            async with Gateway(
                server, GatewayConfig(response_cache_entries=0)
            ) as gw:
                assert gw.response_cache is None
                await gw.submit(query, 3)
                repeat = await gw.submit(query, 3)
                return repeat

        assert not run(scenario()).from_response_cache


def _served(n_in: int, n_out: int, seed: int) -> ServedRequest:
    rng = np.random.default_rng(seed)
    inp = rng.integers(0, 32000, n_in, dtype=np.int32)
    out = rng.integers(0, 32000, n_out, dtype=np.int32)
    return ServedRequest(
        output_tokens=out,
        hit_tokens=0,
        prefilled_tokens=n_in,
        full_sequence=np.concatenate([inp, out]),
    )


class TestResponseCacheUnit:
    def test_make_key_refuses_sampled_params(self):
        cache = ResponseCache()
        with pytest.raises(ValueError, match="independent draw"):
            cache.make_key(np.arange(4, dtype=np.int32), 2, DecodeParams(temperature=1.0))

    def test_lru_eviction_by_entry_count(self):
        cache = ResponseCache(max_entries=2, max_bytes=1 << 20)
        keys = [((i,), 1) for i in range(3)]
        for i, key in enumerate(keys):
            cache.put(key, _served(8, 2, seed=i))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get(keys[0]) is None  # oldest entry evicted
        assert cache.get(keys[2]) is not None

    def test_lru_order_refreshed_by_get(self):
        cache = ResponseCache(max_entries=2, max_bytes=1 << 20)
        a, b, c = (("a",), 1), (("b",), 1), (("c",), 1)
        cache.put(a, _served(8, 2, seed=1))
        cache.put(b, _served(8, 2, seed=2))
        cache.get(a)  # a becomes most-recent
        cache.put(c, _served(8, 2, seed=3))
        assert cache.get(b) is None  # b was LRU, not a
        assert cache.get(a) is not None

    def test_byte_budget_evicts_and_rejects(self):
        one_entry = _served(8, 2, seed=4)
        entry_bytes = int(
            one_entry.output_tokens.nbytes + one_entry.full_sequence.nbytes
        )
        cache = ResponseCache(max_entries=100, max_bytes=2 * entry_bytes)
        cache.put((("x",), 1), _served(8, 2, seed=5))
        cache.put((("y",), 1), _served(8, 2, seed=6))
        cache.put((("z",), 1), _served(8, 2, seed=7))
        assert cache.stats.stored_bytes <= cache.max_bytes
        assert cache.stats.evictions >= 1
        # An entry bigger than the whole budget is rejected outright.
        assert not cache.put((("huge",), 1), _served(10_000, 2, seed=8))
        assert cache.stats.rejected_inserts == 1

    def test_hit_returns_copies(self):
        cache = ResponseCache()
        key = (("k",), 1)
        cache.put(key, _served(8, 2, seed=9))
        first = cache.get(key)
        first.output_tokens[:] = -1
        second = cache.get(key)
        assert not np.array_equal(first.output_tokens, second.output_tokens)

    def test_overwrite_same_key_keeps_bytes_consistent(self):
        cache = ResponseCache()
        key = (("k",), 1)
        cache.put(key, _served(8, 2, seed=10))
        before = cache.stats.stored_bytes
        cache.put(key, _served(8, 2, seed=11))
        assert cache.stats.stored_bytes == before
        assert len(cache) == 1

    def test_clear_and_hit_rate(self):
        cache = ResponseCache()
        key = (("k",), 1)
        assert cache.stats.hit_rate == 0.0
        cache.put(key, _served(8, 2, seed=12))
        cache.get(key)
        cache.get((("absent",), 1))
        assert cache.stats.hit_rate == pytest.approx(0.5)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.stored_bytes == 0
        assert cache.get(key) is None

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            ResponseCache(max_entries=0)
        with pytest.raises(ValueError):
            ResponseCache(max_bytes=0)


class TestSummaries:
    def test_gateway_summary_dict_shape(self, tiny, tokens):
        server = ExactReuseServer(tiny, int(1e9), seed=0)

        async def scenario():
            async with Gateway(server) as gw:
                await gw.submit(tokens(12, seed=80) % tiny.vocab_size, 2)
                await gw.submit(tokens(12, seed=80) % tiny.vocab_size, 2)
                return gateway_summary_dict(gw)

        summary = run(scenario())
        assert summary["gateway"]["admitted"] == 1
        assert summary["gateway"]["response_cache_hits"] == 1
        assert summary["response_cache"]["hits"] == 1
        assert summary["open_sessions"] == 0
        assert summary["prefix_cache"]["lookups"] == 1
        assert "interactive" in summary["tiers"]


class TestNetServe:
    def test_round_trip_byte_identical(self, tiny, tokens):
        server = ExactReuseServer(tiny, int(1e9), seed=0)
        reference = HybridModel(tiny, seed=0)
        query = tokens(20, seed=90) % tiny.vocab_size

        async def scenario():
            gw = Gateway(server)
            async with GatewayServer(gw) as net:
                async with await GatewayClient.connect(net.host, net.port) as client:
                    response = await client.request(query, 4)
            await gw.close()
            return response

        response = run(scenario())
        expected, _ = reference.generate(query, 4)
        np.testing.assert_array_equal(response["output"], expected)
        assert response["hit_tokens"] == 0
        assert response["prefilled_tokens"] == len(query)

    def test_concurrent_requests_multiplexed_on_one_connection(
        self, tiny, tokens
    ):
        server = ExactReuseServer(tiny, int(1e9), seed=0)
        reference = HybridModel(tiny, seed=0)
        queries = [tokens(14, seed=91 + i) % tiny.vocab_size for i in range(8)]

        async def scenario():
            gw = Gateway(server, GatewayConfig(n_workers=3))
            async with GatewayServer(gw) as net:
                async with await GatewayClient.connect(net.host, net.port) as client:
                    responses = await asyncio.gather(
                        *[client.request(q, 3) for q in queries]
                    )
            await gw.close()
            return responses

        responses = run(scenario())
        for query, response in zip(queries, responses):
            expected, _ = reference.generate(query, 3)
            np.testing.assert_array_equal(response["output"], expected)
        assert_drained([server.cache])

    def test_error_reply_for_bad_request(self, tiny):
        server = ExactReuseServer(tiny, int(1e9), seed=0)

        async def scenario():
            gw = Gateway(server)
            async with GatewayServer(gw) as net:
                async with await GatewayClient.connect(net.host, net.port) as client:
                    with pytest.raises(GatewayClientError) as err:
                        await client.request([], 4)  # empty input
            await gw.close()
            return err.value

        error = run(scenario())
        assert error.error["type"] == "ValueError"
        assert "empty request" in error.error["message"]

    def test_agent_sized_request_round_trips(self, tokens):
        """20 000 tokens is 140 KB as a JSON line: past asyncio's default
        64 KiB stream limit, well inside the protocol's own."""
        cache = MarconiCache(hybrid_7b(), int(1e12), alpha=1.0)
        query = tokens(20_000, seed=97)

        async def scenario():
            gw = Gateway(CacheOnlyServer(cache))
            async with GatewayServer(gw) as net:
                async with await GatewayClient.connect(net.host, net.port) as client:
                    first = await client.request(query, 3)
                    longer = np.concatenate([query, first["output"], [7]])
                    again = await client.request(longer, 3)
            await gw.close()
            return first, again

        first, again = run(scenario())
        assert first["prefilled_tokens"] == len(query) and len(first["output"]) == 3
        assert again["hit_tokens"] == len(query) + 3

    def test_over_long_line_is_a_typed_error_and_a_clean_close(
        self, tokens, monkeypatch, caplog
    ):
        """The line's id is unreadable, so the reply is id-less and ends the
        connection — after the request already dispatched on it is served."""
        monkeypatch.setattr(netserve, "MAX_LINE_BYTES", 4096)
        cache = MarconiCache(hybrid_7b(), int(1e12), alpha=1.0)

        async def scenario():
            gw = Gateway(CacheOnlyServer(cache))
            async with GatewayServer(gw) as net:
                async with await GatewayClient.connect(net.host, net.port) as client:
                    outcomes = await asyncio.gather(
                        client.request(tokens(40, seed=98), 200),
                        client.request(tokens(5_000, seed=99), 2),
                        return_exceptions=True,
                    )
                    with pytest.raises((GatewayClientError, ConnectionError)):
                        await client.request(tokens(10, seed=98), 2)
            await gw.close()
            return outcomes

        with caplog.at_level("ERROR", logger="asyncio"):
            served, refused = run(scenario())
        assert len(served["output"]) == 200
        assert isinstance(refused, GatewayClientError)
        assert refused.error["type"] == "line_too_long"
        assert "4096" in refused.error["message"]
        assert not caplog.records
        assert_drained([cache])

    def test_admission_rejection_travels_to_client(self, tiny, tokens):
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = CacheOnlyServer(cache)

        async def scenario():
            gw = Gateway(server, GatewayConfig(n_workers=1, max_queue_depth=1))
            async with GatewayServer(gw) as net:
                async with await GatewayClient.connect(net.host, net.port) as client:
                    outcomes = await asyncio.gather(
                        *[
                            client.request(tokens(10, seed=95 + i), 2)
                            for i in range(6)
                        ],
                        return_exceptions=True,
                    )
            await gw.close()
            return outcomes

        outcomes = run(scenario())
        rejections = [o for o in outcomes if isinstance(o, GatewayClientError)]
        served = [o for o in outcomes if isinstance(o, dict)]
        assert rejections and served
        for rejection in rejections:
            assert rejection.error["type"] == "admission_rejected"
            assert rejection.error["reason"] in ("queue_full", "tier_queue_full")


class TestCheckIntegrity:
    """``Gateway.check_integrity`` names each broken clause: one case per
    clause, on an unstarted gateway (idle, every slot free)."""

    @staticmethod
    def gateway(tiny) -> Gateway:
        gw = Gateway(CacheOnlyServer(MarconiCache(tiny, int(1e9), alpha=1.0)))
        gw.check_integrity()
        return gw

    def test_a_submission_counted_twice(self, tiny):
        gw = self.gateway(tiny)
        gw.stats.submitted += 1
        with pytest.raises(AssertionError, match="submission"):
            gw.check_integrity()

    def test_an_outcome_counted_with_nothing_admitted(self, tiny):
        gw = self.gateway(tiny)
        gw.stats.aborted += 1
        with pytest.raises(AssertionError, match="neither resolved"):
            gw.check_integrity()

    def test_a_running_count_on_the_wrong_tier(self, tiny):
        gw = self.gateway(tiny)
        gw._running["interactive"] -= 1
        gw._running["batch"] += 1
        with pytest.raises(AssertionError, match="running counts"):
            gw.check_integrity()

    def test_a_queued_item_left_out_of_the_total(self, tiny):
        gw = self.gateway(tiny)
        gw._queues["batch"].append(object())
        with pytest.raises(AssertionError, match="queued total"):
            gw.check_integrity()

    def test_an_idle_gateway_holding_a_slot(self, tiny):
        gw = self.gateway(tiny)
        tier = gw._tiers["interactive"]
        gw._slots[0] = types.SimpleNamespace(tier=tier)
        gw._running[tier.name] += 1
        gw.stats.submitted += 1
        gw.stats.admitted += 1
        with pytest.raises(AssertionError, match="idle"):
            gw.check_integrity()


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            GatewayConfig(n_workers=0)
        with pytest.raises(ValueError):
            GatewayConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            GatewayConfig(tiers=())
        with pytest.raises(ValueError, match="duplicate"):
            GatewayConfig(tiers=(SLOTier("a"), SLOTier("a")))
        with pytest.raises(ValueError):
            SLOTier("x", max_concurrency=-1)
