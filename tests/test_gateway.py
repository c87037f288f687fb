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
from repro.metrics import gateway_summary_dict


def no_pins(cache) -> bool:
    return all(n.pin_count == 0 for n in cache.tree.iter_nodes())


def run(coro):
    return asyncio.run(coro)


def accounted(stats) -> bool:
    """Every submission was admitted, shed, or answered from the response
    cache — the front door counts each call exactly once."""
    return stats["submitted"] == (
        stats["admitted"] + stats["shed"] + stats["response_cache_hits"]
    )


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


SWEEP = "|"


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

    async def mark_sweeps(self):
        """Log a marker once per event-loop trip.  Started before the
        gateway, it runs ahead of the step loop in every trip, so what the
        log holds between two markers is one sweep."""
        while True:
            self.log.append(SWEEP)
            await asyncio.sleep(0)

    def sweeps(self) -> list[list[tuple[int, int]]]:
        out, current = [], []
        for entry in self.log + [SWEEP]:
            if entry != SWEEP:
                current.append(entry)
            elif current:
                out.append(current)
                current = []
        return out

    def steps_of(self, request: int) -> list[int]:
        return [e[1] for e in self.log if e != SWEEP and e[0] == request]


def numbered(i: int, tokens, n: int = 10) -> np.ndarray:
    """A request whose first token is its number ``i``."""
    return np.concatenate([[i], tokens(n, seed=300 + i)]).astype(np.int32)


class TestStepLoop:
    """The gateway serves from one task: per event-loop trip, one sweep over
    ``n_workers`` slots, ``decode_yield_every`` steps per slot, slot order."""

    def test_sweep_is_slot_order_round_robin(self, tiny, tokens):
        """Three slots, five requests: each sweep advances the slots in
        order, and the successor of a request that ends takes its first step
        inside the same sweep (where a worker task would have)."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = RecordingServer(cache)
        n_outputs = [1, 3, 2, 2, 1]

        async def scenario():
            marker = asyncio.create_task(server.mark_sweeps())
            async with Gateway(server, GatewayConfig(n_workers=3)) as gw:
                results = await asyncio.gather(
                    *[gw.submit(numbered(i, tokens), n) for i, n in enumerate(n_outputs)]
                )
            marker.cancel()
            return results

        results = run(scenario())
        assert server.sweeps() == [
            [(0, 0), (1, 0), (2, 0)],  # slots 0, 1, 2 take requests 0, 1, 2
            [(0, 1), (3, 0), (1, 1), (2, 1)],  # 0 ends: slot 0 starts 3 at once
            [(3, 1), (1, 2), (2, 2), (4, 0)],  # 2 ends: slot 2 starts 4
            [(3, 2), (1, 3), (4, 1)],  # the last three end; nothing is queued
        ]
        assert [len(r.output_tokens) for r in results] == n_outputs
        assert cache.open_sessions == 0
        assert no_pins(cache)

    def test_decode_yield_every_sets_the_steps_per_sweep(self, tiny, tokens):
        """k=3: every request advances three tokens per sweep — a successor
        too — and outputs are byte-identical to k=1's."""
        n_outputs = [7, 4, 5]
        forced = [tokens(n, seed=400 + i) for i, n in enumerate(n_outputs)]

        def serve_all(every):
            cache = MarconiCache(tiny, int(1e9), alpha=1.0)
            server = RecordingServer(cache)
            config = GatewayConfig(n_workers=2, decode_yield_every=every)

            async def scenario():
                marker = asyncio.create_task(server.mark_sweeps())
                async with Gateway(server, config) as gw:
                    results = await asyncio.gather(
                        *[
                            gw.submit(numbered(i, tokens), 0, forced_outputs=f)
                            for i, f in enumerate(forced)
                        ]
                    )
                marker.cancel()
                return results

            results = run(scenario())
            assert cache.open_sessions == 0 and no_pins(cache)
            return server, results

        server, by_three = serve_all(3)
        assert server.sweeps() == [
            [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)],
            # Request 1 yields its 4th token and ends; request 2 gets a full
            # share of three in the same sweep.
            [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (2, 0), (2, 1), (2, 2)],
            [(0, 6), (0, 7), (2, 3), (2, 4), (2, 5)],
        ]
        _, by_one = serve_all(1)
        for a, b, f in zip(by_three, by_one, forced):
            assert a.output_tokens.tobytes() == b.output_tokens.tobytes() == f.tobytes()
            assert a.full_sequence.tobytes() == b.full_sequence.tobytes()
            assert a.hit_tokens == b.hit_tokens

    def test_cancel_lands_at_the_next_sweep_edge(self, tiny, tokens):
        """With k=3 a cancelled request stops on a multiple of three steps,
        at most one sweep after the cancel, and leaves no pin behind."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = RecordingServer(cache)
        config = GatewayConfig(n_workers=2, decode_yield_every=3)

        async def scenario():
            async with Gateway(server, config) as gw:
                doomed = asyncio.create_task(gw.submit(numbered(0, tokens), 60))
                other = asyncio.create_task(gw.submit(numbered(1, tokens), 12))
                while len(server.steps_of(0)) < 6:
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
        assert taken % 3 == 0 and at_cancel <= taken <= at_cancel + 3
        assert len(survivor.output_tokens) == 12
        assert stats["aborted"] == 1 and stats["completed"] == 1
        assert cache.open_sessions == 0
        assert no_pins(cache)

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
        assert cache.open_sessions == 0
        assert no_pins(cache)

    def test_a_failing_request_fails_alone(self, tiny, tokens):
        """The backend raises on one request: its submitter gets the error,
        its session is aborted, and the other slots run to completion."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = RecordingServer(cache, fail_at=(1, 2))

        async def scenario():
            async with Gateway(server, GatewayConfig(n_workers=3)) as gw:
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
        assert stats["aborted"] == 0 and accounted(stats)
        assert server.steps_of(1) == [0, 1, 2]
        assert cache.open_sessions == 0
        assert no_pins(cache)

    def test_zero_output_requests_never_surface_a_token(self, tiny, tokens):
        """n_output=0 is begin-and-commit in one resumption: the slot moves
        on inside the same sweep, the input is committed (a follow-up hits
        all of it), and first-result time is completion time."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = RecordingServer(cache)
        queries = [numbered(i, tokens, n=20) for i in range(3)]

        async def scenario():
            marker = asyncio.create_task(server.mark_sweeps())
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
        assert cache.open_sessions == 0
        assert no_pins(cache)


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
        assert server.cache.open_sessions == 0
        assert no_pins(server.cache)

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
        assert cache.open_sessions == 0
        assert no_pins(cache)

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
        assert server.cache.open_sessions == 0
        assert no_pins(server.cache)

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
        assert server.cache.open_sessions == 0
        assert no_pins(server.cache)

    def test_cancelled_queued_requests_free_their_admission_slots(
        self, tiny, tokens
    ):
        """A request cancelled while queued leaves the queue at once: dead
        entries must not fill ``max_queue_depth`` and shed live traffic."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = CacheOnlyServer(cache)
        config = GatewayConfig(n_workers=1, max_queue_depth=2)

        async def scenario():
            async with Gateway(server, config) as gw:
                long_task = asyncio.create_task(gw.submit(tokens(20, seed=14), 5000))
                while gw.running == 0:  # until it holds the only slot
                    await asyncio.sleep(0)
                doomed = [
                    asyncio.create_task(gw.submit(tokens(20, seed=15 + i), 4))
                    for i in range(2)
                ]
                await asyncio.sleep(0)  # both enqueue: the queue is full
                assert gw.queued == 2
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
        assert stats["shed"] == 0 and accounted(stats)
        assert cache.open_sessions == 0
        assert no_pins(cache)

    def test_close_without_drain_sheds_queue_and_aborts_running(
        self, tiny, tokens
    ):
        server = SignalingServer(tiny, int(1e9), seed=0)

        async def scenario():
            server.first_token_event = asyncio.Event()
            gw = Gateway(server, GatewayConfig(n_workers=1))
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
        assert accounted(stats)
        assert server.cache.open_sessions == 0
        assert no_pins(server.cache)


class TestAdmissionControl:
    def test_overload_sheds_with_typed_rejection(self, tiny, tokens):
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = CacheOnlyServer(cache)

        async def scenario():
            gw = Gateway(
                server, GatewayConfig(n_workers=1, max_queue_depth=3)
            )
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
        assert accounted(stats)
        assert cache.open_sessions == 0
        assert no_pins(cache)

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

    def test_unknown_tier_rejected(self, tiny, tokens):
        async def scenario():
            async with Gateway(
                CacheOnlyServer(MarconiCache(tiny, int(1e9), alpha=1.0))
            ) as gw:
                with pytest.raises(ValueError, match="unknown tier"):
                    await gw.submit(tokens(8, seed=1), 2, tier="platinum")
                await gw.submit(tokens(8, seed=1), 2)
                return gw.stats.snapshot()

        stats = run(scenario())
        # The bad call was a caller's bug, not a submission.
        assert stats["submitted"] == 1 and accounted(stats)


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
        assert server.cache.open_sessions == 0
        assert no_pins(server.cache)

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
        assert cache.open_sessions == 0 and no_pins(cache)

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


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            GatewayConfig(n_workers=0)
        with pytest.raises(ValueError):
            GatewayConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            GatewayConfig(decode_yield_every=0)
        with pytest.raises(ValueError):
            GatewayConfig(tiers=())
        with pytest.raises(ValueError, match="duplicate"):
            GatewayConfig(tiers=(SLOTier("a"), SLOTier("a")))
        with pytest.raises(ValueError):
            SLOTier("x", max_concurrency=-1)
