"""Replay-path tests: CacheOnlyServer, TraceReplayer, and the headline
equivalence — a wall-clock replay through the live gateway produces the
same per-request hit counts as the offline ``ServingSimulator`` on the
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

import numpy as np
import pytest

from repro.core.cache import MarconiCache
from repro.engine.server import ServingSimulator
from repro.models.presets import hybrid_7b
from repro.serving import (
    CacheOnlyServer,
    Gateway,
    GatewayConfig,
    TraceReplayer,
)
from repro.workloads.lmsys import generate_lmsys_trace
from repro.workloads.sessions import WorkloadParams
from repro.workloads.trace import Trace, TraceRound, TraceSession


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


def no_pins(cache) -> bool:
    return all(n.pin_count == 0 for n in cache.tree.iter_nodes())


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
        assert cache.open_sessions == 0
        assert no_pins(cache)

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
        assert cache.open_sessions == 0
        assert no_pins(cache)


class TestReplayEquivalence:
    def test_replay_matches_offline_simulator(self, tiny):
        """The headline check: per-request hit counts and cache totals of a
        live gateway replay equal the offline ServingSimulator's on the
        same trace."""
        trace = build_trace(n_sessions=12, seed=7)

        sim_cache = MarconiCache(tiny, int(1e12), alpha=1.0)
        offline = ServingSimulator(tiny, sim_cache, policy_name="marconi").run(trace)
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
        assert gw_cache.open_sessions == 0
        assert no_pins(gw_cache)

    def test_replay_matches_offline_with_concurrent_workers(self, tiny):
        """Disjoint session prefixes make the comparison worker-count
        independent: four workers interleaving sessions still reproduce
        the offline hit counts exactly."""
        trace = build_trace(n_sessions=10, seed=21)

        sim_cache = MarconiCache(tiny, int(1e12), alpha=1.0)
        offline = ServingSimulator(tiny, sim_cache, policy_name="marconi").run(trace)
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
        assert gw_cache.open_sessions == 0
        assert no_pins(gw_cache)


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
        assert cache.open_sessions == 0
        assert no_pins(cache)
        assert report.gateway_stats["shed"] == report.shed

    def test_replay_accounting_closes(self):
        """An lmsys replay against a contended 7B-hybrid cache (evictions
        run, four requests in flight): every trace round is served —
        nothing shed, aborted, or lost — and the gateway's counters agree
        with the replay report."""
        trace = generate_lmsys_trace(
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
        assert cache.open_sessions == 0
        assert no_pins(cache)

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
