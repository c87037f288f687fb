"""Replay-path tests: CacheOnlyServer, TraceReplayer, and the headline
equivalence — a wall-clock replay through the live gateway produces the
same per-request hit counts as the offline ``simulate_trace`` on the
same trace.

Equivalence preconditions (each deliberate):

* sessions get **disjoint prefixes** (unique first token) so hit counts
  are insensitive to interleaving order across sessions;
* the cache is effectively **unbounded** (no eviction to diverge on);
* ``alpha=1.0`` pins the FLOP-aware tuner (no online retuning);
* replays are **teacher-forced**, keeping committed sequences aligned
  with the trace's next-round inputs on both sides;
* sessions are **closed-loop** in both systems: round ``k`` commits
  before round ``k+1`` is submitted.
"""

from __future__ import annotations

import asyncio
import types

import numpy as np
import pytest

from repro.core.cache import MarconiCache
from repro.core.interfaces import RequestSession
from repro.engine.server import simulate_trace
from repro.models.presets import hybrid_7b
from repro.serving import (
    CacheOnlyServer,
    Gateway,
    GatewayConfig,
    TraceReplayer,
)
from repro.serving import gateway as gateway_module
from repro.serving.gateway import MAX_SWEEPS_PER_TRIP
from repro.serving.replay import _EchoSteps
from repro.workloads import generate_trace
from repro.workloads.sessions import WorkloadParams
from repro.workloads.trace import Trace, TraceRound, TraceSession

from _drain import assert_drained
from _servers import PassThroughServer


def build_trace(n_sessions=12, seed=7, max_rounds=4, burst=False):
    """Multi-round sessions with disjoint prefixes (unique first token)."""
    rng = np.random.default_rng(seed)
    sessions = []
    t = 0.0
    for i in range(n_sessions):
        rounds, thinks = [], []
        n_rounds = int(rng.integers(1, max_rounds))
        for k in range(n_rounds):
            first = (
                np.concatenate(
                    [
                        [100000 + i],
                        rng.integers(0, 32000, int(rng.integers(5, 40)), dtype=np.int32),
                    ]
                ).astype(np.int32)
                if k == 0
                else rng.integers(0, 32000, int(rng.integers(5, 30)), dtype=np.int32)
            )
            rounds.append(
                TraceRound(
                    new_input_tokens=first,
                    output_tokens=rng.integers(
                        0, 32000, int(rng.integers(3, 12)), dtype=np.int32
                    ),
                )
            )
            thinks.append(0.0 if k == 0 else float(rng.uniform(0.5, 3.0)))
        sessions.append(TraceSession(i, t, rounds, thinks))
        if not burst:
            t += float(rng.uniform(0.0, 1.5))
    return Trace(name="replay-test", seed=seed, sessions=sessions)


class TestCacheOnlyServer:
    def test_session_lifecycle_and_reuse(self, tiny, tokens):
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = CacheOnlyServer(cache)
        prefix = tokens(30, seed=1)
        out = tokens(6, seed=2)

        gen = server.serve_steps(prefix, 0, forced_outputs=out)
        while True:
            try:
                next(gen)
            except StopIteration as stop:
                first = stop.value
                break
        assert first.hit_tokens == 0
        np.testing.assert_array_equal(
            first.full_sequence, np.concatenate([prefix, out])
        )

        # Second request extends the committed sequence: full prefix hit.
        follow_up = np.concatenate([first.full_sequence, tokens(10, seed=3)])
        gen = server.serve_steps(follow_up, 2)
        while True:
            try:
                next(gen)
            except StopIteration as stop:
                second = stop.value
                break
        assert second.hit_tokens == len(first.full_sequence)
        assert_drained([cache])

    def test_rejects_empty_input_and_negative_n_output(self, tiny, tokens):
        server = CacheOnlyServer(MarconiCache(tiny, int(1e9), alpha=1.0))
        with pytest.raises(ValueError, match="empty request"):
            next(server.serve_steps(np.empty(0, dtype=np.int32), 4))
        with pytest.raises(ValueError, match="n_output"):
            next(server.serve_steps(tokens(8, seed=1), -1))

    def test_close_mid_serve_aborts(self, tiny, tokens):
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = CacheOnlyServer(cache)
        gen = server.serve_steps(tokens(20, seed=4), 8)
        next(gen)  # session is open, mid-decode
        assert cache.open_sessions == 1
        gen.close()
        assert_drained([cache])

    def test_skipped_echoes_are_committed(self, tiny, tokens, monkeypatch):
        """``silent`` counts the echoes between the first token and the
        commit; skipping them surfaces nothing and still commits every
        forced token.  Closing a finished serve calls no ``abort``."""
        aborts = []
        abort = RequestSession.abort
        monkeypatch.setattr(
            RequestSession,
            "abort",
            lambda session: (aborts.append(session), abort(session)),
        )
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = CacheOnlyServer(cache)
        prefix, forced = tokens(20, seed=5), tokens(9, seed=6)
        steps = server.serve_steps(prefix, 0, forced_outputs=forced)
        assert steps.silent == 0  # the first step begins the session
        assert next(steps) == forced[0] and steps.silent == 8
        steps.skip(5)
        with pytest.raises(ValueError, match="silent"):
            steps.skip(4)
        assert [next(steps) for _ in range(3)] == forced[6:].tolist()
        assert steps.silent == 0
        with pytest.raises(StopIteration) as stop:
            next(steps)
        np.testing.assert_array_equal(stop.value.value.output_tokens, forced)
        np.testing.assert_array_equal(
            stop.value.value.full_sequence, np.concatenate([prefix, forced])
        )
        with pytest.raises(StopIteration):
            next(steps)
        steps.close()
        assert not aborts
        assert_drained([cache])

    def test_close_after_a_skip_aborts(self, tiny, tokens):
        """Skipped steps are never applied: closing the iterator aborts the
        session with zero pins, and it stays finished."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        server = CacheOnlyServer(cache)
        for _ in server.serve_steps(tokens(30, seed=7), 4):  # something to hit
            pass
        steps = server.serve_steps(tokens(30, seed=7), 16)
        next(steps)
        steps.skip(10)
        assert cache.open_sessions == 1 and any(n.pin_count for n in cache.tree.iter_nodes())
        steps.close()
        assert_drained([cache])
        assert steps.silent == 0
        with pytest.raises(StopIteration):
            next(steps)


class TestReplayEquivalence:
    def test_replay_matches_offline_simulator(self, tiny):
        """The headline check: per-request hit counts and cache totals of a
        live gateway replay equal the offline simulate_trace's on the
        same trace."""
        trace = build_trace(n_sessions=12, seed=7)

        sim_cache = MarconiCache(tiny, int(1e12), alpha=1.0)
        offline = simulate_trace(tiny, sim_cache, trace, policy_name="marconi")
        offline_hits = sorted(
            (r.session_id, r.round_index, r.hit_tokens) for r in offline.records
        )

        gw_cache = MarconiCache(tiny, int(1e12), alpha=1.0)
        gateway = Gateway(
            CacheOnlyServer(gw_cache),
            GatewayConfig(n_workers=1, max_queue_depth=10_000),
        )

        async def scenario():
            report = await TraceReplayer(gateway, speed=None).run(trace)
            await gateway.close()
            return report

        report = asyncio.run(scenario())

        assert report.hit_counts() == offline_hits
        assert report.served == trace.n_requests
        assert report.shed == 0 and report.abandoned_rounds == 0
        assert gw_cache.stats.hit_tokens == sim_cache.stats.hit_tokens
        assert gw_cache.stats.input_tokens == sim_cache.stats.input_tokens
        assert report.hit_tokens == sim_cache.stats.hit_tokens
        assert_drained([gw_cache])

    def test_replay_matches_offline_with_concurrent_workers(self, tiny):
        """Disjoint session prefixes make the comparison worker-count
        independent: four workers interleaving sessions still reproduce
        the offline hit counts exactly."""
        trace = build_trace(n_sessions=10, seed=21)

        sim_cache = MarconiCache(tiny, int(1e12), alpha=1.0)
        offline = simulate_trace(tiny, sim_cache, trace, policy_name="marconi")
        offline_hits = sorted(
            (r.session_id, r.round_index, r.hit_tokens) for r in offline.records
        )

        gw_cache = MarconiCache(tiny, int(1e12), alpha=1.0)
        gateway = Gateway(
            CacheOnlyServer(gw_cache),
            GatewayConfig(n_workers=4, max_queue_depth=10_000),
        )

        async def scenario():
            report = await TraceReplayer(gateway, speed=None).run(trace)
            await gateway.close()
            return report

        report = asyncio.run(scenario())
        assert report.hit_counts() == offline_hits
        assert_drained([gw_cache])


class TestReplayBackpressure:
    def test_shed_sessions_abandon_remaining_rounds(self, tiny):
        """A burst trace against a tiny queue sheds sessions with typed
        reasons and abandons their later rounds (closed-loop clients)."""
        trace = build_trace(n_sessions=10, seed=5, max_rounds=4, burst=True)

        cache = MarconiCache(tiny, int(1e12), alpha=1.0)
        gateway = Gateway(
            CacheOnlyServer(cache),
            GatewayConfig(n_workers=1, max_queue_depth=3),
        )

        async def scenario():
            report = await TraceReplayer(gateway, speed=None).run(trace)
            await gateway.close()
            return report

        report = asyncio.run(scenario())
        assert report.shed > 0
        assert report.served > 0
        shed_records = [r for r in report.records if r.status == "shed"]
        assert all(r.shed_reason == "queue_full" for r in shed_records)
        # Each shed session contributes exactly its first round as a shed
        # record; later rounds were never submitted.
        assert all(r.round_index == 0 for r in shed_records)
        expected_abandoned = sum(
            trace.sessions[r.session_id].n_rounds - 1 for r in shed_records
        )
        assert report.abandoned_rounds == expected_abandoned
        # Accounting closes: every round is served, shed, or abandoned.
        assert report.served + report.shed + report.abandoned_rounds == trace.n_requests
        assert_drained([cache])
        assert report.gateway_stats["shed"] == report.shed

    def test_replay_accounting_closes(self):
        """An lmsys replay against a contended 7B-hybrid cache (evictions
        run, four requests in flight): every trace round is served —
        nothing shed, aborted, or lost — and the gateway's counters agree
        with the replay report."""
        trace = generate_trace(
            "lmsys",
            WorkloadParams(n_sessions=60, session_rate=2.0, mean_think_s=3.0, seed=31)
        )
        cache = MarconiCache(hybrid_7b(), int(2e9), eviction="flop_aware", alpha=1.0)
        gateway = Gateway(
            CacheOnlyServer(cache), GatewayConfig(n_workers=4, max_queue_depth=10_000)
        )

        async def scenario():
            report = await TraceReplayer(gateway, speed=None).run(trace)
            await gateway.close()
            return report

        report = asyncio.run(scenario())
        assert cache.stats.evictions > 0
        assert report.served == trace.n_requests
        assert report.shed == 0 and report.abandoned_rounds == 0
        stats = report.gateway_stats
        assert stats["completed"] == report.served
        assert stats["failed"] == 0 and stats["aborted"] == 0
        assert_drained([cache])

    def test_report_to_dict_round_trips_counts(self, tiny):
        trace = build_trace(n_sessions=4, seed=11)
        cache = MarconiCache(tiny, int(1e12), alpha=1.0)
        gateway = Gateway(CacheOnlyServer(cache), GatewayConfig(n_workers=2))

        async def scenario():
            report = await TraceReplayer(gateway, speed=None).run(trace)
            await gateway.close()
            return report

        report = asyncio.run(scenario())
        payload = report.to_dict()
        assert payload["n_requests"] == report.n_requests
        assert payload["served"] == report.served
        assert payload["hit_tokens"] == report.hit_tokens
        assert payload["token_hit_rate"] == pytest.approx(report.token_hit_rate)
        assert payload["gateway"]["completed"] == report.served


class TestReplayTiming:
    def test_scaled_speed_respects_arrival_spacing(self, tiny):
        """With speed set, a session arriving at t=2 is not submitted
        before 2/speed wall seconds."""
        rng = np.random.default_rng(3)

        def session(i, arrival):
            return TraceSession(
                i,
                arrival,
                [
                    TraceRound(
                        new_input_tokens=np.concatenate(
                            [[100000 + i], rng.integers(0, 32000, 10, dtype=np.int32)]
                        ).astype(np.int32),
                        output_tokens=rng.integers(0, 32000, 4, dtype=np.int32),
                    )
                ],
                [0.0],
            )

        trace = Trace(
            name="timed", seed=3, sessions=[session(0, 0.0), session(1, 2.0)]
        )
        cache = MarconiCache(tiny, int(1e12), alpha=1.0)
        gateway = Gateway(CacheOnlyServer(cache), GatewayConfig(n_workers=2))

        async def scenario():
            report = await TraceReplayer(gateway, speed=100.0).run(trace)
            await gateway.close()
            return report

        report = asyncio.run(scenario())
        assert report.served == 2
        # Second arrival is due at 2.0/100 = 20ms of wall time.
        assert report.wall_seconds >= 0.02

    def test_speed_must_be_positive(self, tiny):
        cache = MarconiCache(tiny, int(1e12), alpha=1.0)
        gateway = Gateway(CacheOnlyServer(cache))
        with pytest.raises(ValueError, match="speed"):
            TraceReplayer(gateway, speed=0.0)

    def test_tier_for_routes_sessions(self, tiny):
        trace = build_trace(n_sessions=6, seed=13)
        cache = MarconiCache(tiny, int(1e12), alpha=1.0)
        gateway = Gateway(CacheOnlyServer(cache), GatewayConfig(n_workers=2))
        routed: list[tuple[int, str]] = []

        def tier_for(session):
            tier = "batch" if session.session_id % 2 else "interactive"
            routed.append((session.session_id, tier))
            return tier

        async def scenario():
            report = await TraceReplayer(
                gateway, speed=None, tier_for=tier_for
            ).run(trace)
            await gateway.close()
            return report

        report = asyncio.run(scenario())
        assert report.served == trace.n_requests
        assert {tier for _, tier in routed} == {"interactive", "batch"}


def logging_asyncio(log: list) -> types.SimpleNamespace:
    """``asyncio`` for the gateway module, logging each loop trip
    (``sleep``) and idle wait (``Event.wait``)."""

    class Event(asyncio.Event):
        async def wait(self):
            log.append("wait")
            return await super().wait()

    async def sleep(delay, *args, **kwargs):
        log.append("trip")
        return await asyncio.sleep(delay, *args, **kwargs)

    return types.SimpleNamespace(**{**vars(asyncio), "sleep": sleep, "Event": Event})


def logging_clock(log: list, tag: str):
    """A clock that logs each read: the cache's reads are its begins and
    commits, the gateway's its submits, dequeues, first tokens and ends.  It
    reads the number of entries that are not trips, so where the loop trips
    moves no time stamp."""

    def tick() -> float:
        log.append(tag)
        return float(len(log) - log.count("trip"))

    return tick


def untripped(log: list) -> list:
    return [entry for entry in log if entry != "trip"]


def tree_state(cache) -> list:
    return sorted(
        (n.path_tokens().tobytes(), n.has_ssm_state, n.last_access, n.hit_count)
        for n in cache.tree.iter_nodes()
    )


class TestSilentSweepJump:
    """``CacheOnlyServer``'s echo steps touch no cache, so the step loop
    jumps sweeps in which every slot would only echo: one jump spans the
    fewest echoes any slot has left and counts as one sweep toward
    :data:`MAX_SWEEPS_PER_TRIP`.  A pass-through wrapper hides ``silent``,
    which makes it the step-by-step reference."""

    @staticmethod
    def _replay(server_type, trace, monkeypatch):
        log: list = []
        monkeypatch.setattr(gateway_module, "asyncio", logging_asyncio(log))
        cache = MarconiCache(hybrid_7b(), int(2e9), eviction="flop_aware", alpha=1.0)
        server = server_type(cache, clock=logging_clock(log, "cache"))
        gateway = Gateway(
            server,
            GatewayConfig(n_workers=4, max_queue_depth=10_000),
            clock=logging_clock(log, "gateway"),
        )

        async def scenario():
            report = await TraceReplayer(gateway, speed=None).run(trace)
            await gateway.close()
            return report

        report = asyncio.run(scenario())
        assert_drained([cache])
        gateway.check_integrity()
        return log, report.hit_counts(), tree_state(cache), cache.stats.evictions

    def test_a_jump_is_the_sweeps_it_replaces(self, monkeypatch):
        """One contended closed loop, jumped and stepped: the same hits, the
        same evictions, the same final tree and the same log of begins,
        commits, dequeues, first tokens and idle waits, in the same order;
        only trips that could wake no submitter are gone."""
        trace = generate_trace(
            "lmsys",
            WorkloadParams(n_sessions=40, session_rate=2.0, mean_think_s=3.0, seed=31)
        )
        skips: list[int] = []
        skip = _EchoSteps.skip
        monkeypatch.setattr(
            _EchoSteps, "skip", lambda self, k: (skips.append(k), skip(self, k))[1]
        )
        jumped = self._replay(CacheOnlyServer, trace, monkeypatch)
        assert skips and max(skips) > MAX_SWEEPS_PER_TRIP  # one jump, many sweeps
        jumped_sweeps = len(skips)
        stepped = self._replay(PassThroughServer, trace, monkeypatch)
        assert len(skips) == jumped_sweeps  # the wrapper is never jumped
        log, hits, tree, evictions = jumped
        assert evictions > 0
        assert hits == stepped[1]
        assert tree == stepped[2]
        assert evictions == stepped[3]
        assert untripped(log) == untripped(stepped[0])
        assert 0 < log.count("trip") < stepped[0].count("trip")

    def test_a_free_or_cancelled_slot_is_never_jumped(self, tiny, tokens, monkeypatch):
        """Alone in two slots, a long request is stepped, not jumped.  Beside
        a chain of shorter companions it is jumped up to each companion's
        commit, where the loop trips; a cancel lands while both slots are
        busy, and from then on the step loop sweeps, aborting it with zero
        pins."""
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        gateway = Gateway(CacheOnlyServer(cache), GatewayConfig(n_workers=2))
        skips: list[int] = []
        jumped_past: list[str] = []  # raising here would kill the step loop
        skip = _EchoSteps.skip

        def checked_skip(steps, k):
            if not all(gateway._slots):
                jumped_past.append("a free slot")
            elif any(item.cancelled for item in gateway._slots):
                jumped_past.append("a cancelled slot")
            skips.append(k)
            skip(steps, k)

        monkeypatch.setattr(_EchoSteps, "skip", checked_skip)
        n, short = 10 * MAX_SWEEPS_PER_TRIP, MAX_SWEEPS_PER_TRIP

        async def scenario():
            async with gateway:
                alone = await gateway.submit(tokens(20, seed=1), n)
                assert not skips, jumped_past  # one slot was free throughout
                doomed = asyncio.create_task(gateway.submit(tokens(20, seed=2), n))
                companions = [
                    asyncio.create_task(gateway.submit(tokens(20, seed=3 + i), short))
                    for i in range(4)
                ]
                while not skips:
                    await asyncio.sleep(0)
                doomed.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await doomed
                landed = len(skips)
                served = await asyncio.gather(*companions)
                return alone, served, landed, gateway.stats.snapshot()

        alone, served, landed, stats = asyncio.run(scenario())
        assert not jumped_past
        assert len(alone.output_tokens) == n
        assert all(len(r.output_tokens) == short for r in served)
        assert 0 < landed < len(skips)  # jumps went on once the abort freed its slot
        assert stats["aborted"] == 1 and stats["completed"] == 5
        gateway.check_integrity()
        assert_drained([cache])

    def test_a_jump_counts_once_toward_the_trip_bound(self, tiny, tokens, monkeypatch):
        """Two slots busy on requests of different lengths, both far longer
        than the bound: one jump spans the shorter one's whole silent
        stretch, and no stretch between two trips holds more than
        ``MAX_SWEEPS_PER_TRIP`` sweeps plus jumps."""
        log: list = []
        monkeypatch.setattr(gateway_module, "asyncio", logging_asyncio(log))
        step, skip = _EchoSteps.__next__, _EchoSteps.skip
        silent_sweeps = Gateway._silent_sweeps

        def logged_step(steps):
            log.append(("step", 1))
            return step(steps)

        def logged_skip(steps, k):
            log.append(("skip", k))
            skip(steps, k)

        def logged_unit(gateway):  # asked once before every sweep or jump
            log.append("unit")
            return silent_sweeps(gateway)

        monkeypatch.setattr(_EchoSteps, "__next__", logged_step)
        monkeypatch.setattr(_EchoSteps, "skip", logged_skip)
        monkeypatch.setattr(Gateway, "_silent_sweeps", logged_unit)
        cache = MarconiCache(tiny, int(1e9), alpha=1.0)
        gateway = Gateway(CacheOnlyServer(cache), GatewayConfig(n_workers=2))
        short, long = 6 * MAX_SWEEPS_PER_TRIP + 4, 10 * MAX_SWEEPS_PER_TRIP

        async def scenario():
            async with gateway:
                await asyncio.gather(
                    *[gateway.submit(tokens(10, seed=i), n) for i, n in enumerate((short, long))]
                )

        asyncio.run(scenario())
        windows, window = [], []  # the entries between two trips or idle waits
        for entry in log + ["trip"]:
            if entry in ("trip", "wait"):
                if window:
                    windows.append(window)
                window = []
            else:
                window.append(entry)
        assert max(w.count("unit") for w in windows) <= MAX_SWEEPS_PER_TRIP
        one = [("step", 1)] * 2
        busy = [w for w in windows if ("skip", short - 1) in w]
        # Both begin; one jump over the short request's n - 1 echoes; its
        # commit ends the stretch, with the long request's echo beside it.
        assert busy == [["unit", *one, "unit", *[("skip", short - 1)] * 2, "unit", *one]]
        jumps = [e for e in log if isinstance(e, tuple) and e[0] == "skip"]
        assert jumps == [("skip", short - 1)] * 2  # then a slot is free
        gateway.check_integrity()
        assert_drained([cache])
