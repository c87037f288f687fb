"""The four workloads: how each system is built, replayed and checked.

A *repetition* replays one freshly generated sub-trace through one freshly
built system.  ``build`` is everything a user pays before the first request
(trace generation, fleet construction) and is timed by the runner as
set-up; ``replay`` times only the region between the first request handed
to the system and the last one served, then runs the invariant checks
outside that region.  Sizes are for ``--scale 1.0``; every session count
scales linearly.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

import numpy as np

from repro import MarconiCache, hybrid_7b
from repro.cluster import DirectoryRouter, ScenarioEvent, ShardedPrefixDirectory
from repro.engine.kernel import KernelConfig, SimulationKernel
from repro.engine.latency import LatencyModel
from repro.models.memory import node_state_bytes
from repro.serving.gateway import AdmissionRejected, Gateway, GatewayConfig
from repro.serving.replay import CacheOnlyServer
from repro.tiering import TieredMarconiCache
from repro.workloads import (
    TraceStream,
    generate_trace,
    generate_trace_stream,
    mix_streams,
)

from bench_e2e.hostspeed import Probe
from bench_e2e.tracing import Tracer

#: Cache capacities are counted in checkpointed 2000-token states.
STATE_TOKENS = 2000

FLEET_REPLICAS = 64
# Per replica, and again in its second tier.  With 8, one swebench context
# does not fit a replica, and p95 is the per-seed count of such sessions
# (13 % seed-to-seed spread against 6 %).
FLEET_STATES = 16
FLEET_LMSYS_SESSIONS = 270
FLEET_SWEBENCH_SESSIONS = 68
FLEET_ARRIVAL_SPAN_S = 30.0  # simulated seconds over which sessions arrive
FLEET_FAIL_AT_S, FLEET_JOIN_AT_S = 10.0, 20.0
FLEET_LINK_BYTES_PER_S = 3e9
# Spill as soon as the affinity replica is busier than the idlest one: with
# 2 the fleet is so lightly loaded that a sub-trace plans 2 transfers.
FLEET_MAX_IMBALANCE = 0
# Counters a full-size replay must reach, so that the workload cannot
# silently stop steering (lowest seen over 146 sub-traces: 12 planned, 2 split).
FLEET_FLOORS = {
    "engine.steering.transfers_planned": 5,
    "engine.steering.transfers_split": 1,
    "tiering.receive_calls": 5,
}

# Rounds between two host-speed samples: about one 0.22 ms sample per 10 ms
# of replay on every workload (a round costs 2.5 / 1 / 0.12 / 2.5 ms).
FLEET_PROBE_EVERY = 4
CONTENDED_PROBE_EVERY = 10
REUSE_PROBE_EVERY = 80
GATEWAY_PROBE_EVERY = 4

CONTENDED_STATES = 200
CONTENDED_SESSIONS = 800
# Utilisation ~0.1: at 3/s bursts of queueing set p95 (9-15 % seed-to-seed
# spread against 3 %); evictions per round are the same at either rate.
CONTENDED_SESSION_RATE = 1.5

REUSE_SESSIONS = 600
# Utilisation ~0.2: at 0.5/s queueing made up two thirds of TTFT and its
# burstiness a 13 % seed-to-seed spread; this workload is about reuse.
REUSE_SESSION_RATE = 0.2
REUSE_STATES = 1 << 20  # capacity that never binds

GATEWAY_STATES = 200
GATEWAY_WORKERS = 4
GATEWAY_SESSION_RATE = 2.0
GATEWAY_SATURATE_SESSIONS = 250  # closed loop: every session a waiting client
# 2 sessions/s of trace time -> 20 sessions/s of wall, about a sixth of
# saturation.  At 40/s a burst or a 30 % slower host tipped single runs into
# a growing backlog and the median TTFT from 0.15 ms to 100 ms.
GATEWAY_PACED_SESSIONS = 160
GATEWAY_PACED_SPEED = 10.0


@dataclass
class Verdict:
    """Invariant checks made, and the ones that failed."""

    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Rep:
    """What one repetition produced: the timed wall and how slow the host
    was during it, what the modelled system did, the verdict of the
    invariant checks, and the counters the layers' public telemetry exposes."""

    rounds: int  # trace rounds attempted
    served: int
    wall_s: float  # as the clock read it, without the probe's samples
    slowdown: float  # of the host against its nominal speed, by the probe
    hit_tokens: int
    input_tokens: int
    sim_ttft_ms: np.ndarray  # simulated TTFT per served round (empty on the live path)
    verdict: Verdict = field(default_factory=Verdict)
    layers: dict[str, float] = field(default_factory=dict)

    def same_simulation(self, other: "Rep") -> bool:
        """Did two replays of one sub-trace model the very same thing?"""
        return (
            self.rounds == other.rounds
            and self.served == other.served
            and self.hit_tokens == other.hit_tokens
            and self.input_tokens == other.input_tokens
            and np.array_equal(self.sim_ttft_ms, other.sim_ttft_ms)
        )


@dataclass
class Paced:
    """Outcome of the open-loop phase of ``gateway_live``."""

    rounds: int
    served: int
    ttft_ms: np.ndarray  # wall clock; a session's first round from when it was due
    late_ms: np.ndarray  # how late the generator submitted each session's first round
    queue_share: float  # share of gateway TTFT spent waiting for a worker
    verdict: Verdict = field(default_factory=Verdict)


@dataclass(frozen=True)
class Workload:
    name: str
    reps: int  # distinct sub-traces per cycle
    build: Callable[[int, float], Any]
    replay: Callable[[Any, Optional[Tracer]], Rep]
    # Layer counters every full-size replay must reach.
    floors: dict[str, float] = field(default_factory=dict)
    # gateway_live only: the open-loop phase, and the kernel's model of the
    # service replaying the same sub-trace (the live path has no sim_ttft).
    paced: Optional[Callable[[int, float], Paced]] = None
    modelled: Optional[Callable[[int, float], Rep]] = None


def _sessions(base: int, scale: float) -> int:
    return max(2, round(base * scale))


def _flop_aware_cache(model: Any, states: int) -> MarconiCache:
    capacity = states * node_state_bytes(model, STATE_TOKENS, True)
    return MarconiCache(model, capacity, eviction="flop_aware", alpha=1.0)


def _generate(
    workload: str, sessions: int, session_rate: float, seed: int, scale: float
) -> tuple[Any, float]:
    """A materialized trace and the host seconds its generation took."""
    start = time.perf_counter()
    trace = generate_trace(
        workload,
        n_sessions=_sessions(sessions, scale),
        seed=seed,
        session_rate=session_rate,
    )
    return trace, time.perf_counter() - start


# ----------------------------------------------------------------------
# Kernel-driven workloads
# ----------------------------------------------------------------------
@dataclass
class StreamTap:
    """What the benchmark sees of a streamed trace as the kernel pulls it:
    the rounds it was actually given, and (traced run) a span per pull."""

    sessions: list[tuple[int, int]] = field(default_factory=list)  # (id, rounds)
    wrap: Optional[Callable[[Callable], Callable]] = None

    def over(self, stream: TraceStream) -> TraceStream:
        def factory() -> Iterator[Any]:
            pull = iter(stream.iter_sessions()).__next__
            if self.wrap is not None:
                pull = self.wrap(pull)
            while True:
                try:
                    session = pull()
                except StopIteration:
                    return
                self.sessions.append((session.session_id, session.n_rounds))
                yield session

        return TraceStream(
            name=stream.name,
            seed=stream.seed,
            factory=factory,
            n_sessions=stream.n_sessions,
            metadata=stream.metadata,
        )


@dataclass(frozen=True)
class _ProbedLatency(LatencyModel):
    """The kernel prices every round's prefill here: one probe tick each."""

    probe: Optional[Probe] = None

    def prefill_seconds_batch(self, *args: Any, **kwargs: Any) -> Any:
        self.probe.tick()
        return super().prefill_seconds_batch(*args, **kwargs)


@dataclass
class SimSystem:
    kernel: SimulationKernel
    caches: list[Any]  # grows when a spare joins mid-run
    trace: Any  # a Trace, or a TraceStream generated inside the timed region
    gen_s: float  # trace generation paid in set-up (0 for a stream)
    probe: Probe
    tap: Optional[StreamTap] = None
    router: Optional[DirectoryRouter] = None
    directory: Optional[ShardedPrefixDirectory] = None


def _replay_kernel(system: SimSystem, tracer: Optional[Tracer]) -> Rep:
    if tracer is not None:
        system.probe.mute()
        if system.tap is not None:
            system.tap.wrap = lambda pull: tracer.wrap("workloads.gen", pull)
    with system.probe.edges():
        system.probe.start()
        run = system.kernel.run(system.trace)
        wall = system.probe.stop()

    if system.tap is not None:
        per_session = system.tap.sessions
    else:
        per_session = [(s.session_id, s.n_rounds) for s in system.trace.sessions]
    expected = {(sid, k) for sid, n_rounds in per_session for k in range(n_rounds)}
    records = [rec for result in run.replica_results for rec in result.records]
    served = [(rec.session_id, rec.round_index) for rec in records]
    ttft = np.array([rec.ttft for rec in records], dtype=np.float64)
    rep = Rep(
        rounds=len(expected),
        served=len(expected.intersection(served)),
        wall_s=wall,
        slowdown=system.probe.slowdown,
        hit_tokens=sum(rec.hit_tokens for rec in records),
        input_tokens=sum(rec.input_len for rec in records),
        sim_ttft_ms=ttft * 1e3,
    )
    verdict = rep.verdict
    verdict.check(
        len(served) == len(expected) and set(served) == expected,
        "records are not bijective with the trace rounds",
    )
    _check_caches(verdict, system.caches)
    if system.directory is not None:
        verdict.check(_holds(system.directory.check_integrity), "directory integrity")
        verdict.check(
            _holds(
                run.steering.check_conservation,
                system.kernel.latency.transfer_bandwidth_bytes_per_s,
            ),
            "transfer link conservation",
        )

    caches = system.caches
    waited = sum(rec.service_start - rec.arrival_time for rec in records)
    rep.layers = {
        "workloads.sessions": len(per_session),
        "workloads.gen_s": system.gen_s,
        "core.cache.hit_tokens": rep.hit_tokens,
        "core.cache.input_tokens": rep.input_tokens,
        "engine.kernel.events": run.n_events,
        "engine.kernel.sim_queue_share": waited / float(ttft.sum()),
        **_cache_counters(caches),
    }
    if system.router is not None:
        counters = run.steering.counters
        decisions = system.router.decision_stats
        routed = sum(decisions.get(key, 0) for key in ("affinity", "spilled", "cold"))
        rep.layers.update(
            {
                "tiering.promotions": _extra(caches, "promotions"),
                "tiering.demotions": _extra(caches, "demotions"),
                "engine.steering.transfers_planned": counters.get("transfers_planned", 0),
                "engine.steering.transfers_split": counters.get("transfers_split", 0),
                "engine.steering.transfer_bytes": run.steering.total_transfer_bytes,
                "engine.steering.overlap_saved_ms": run.steering.overlap_seconds_saved
                * 1e3,
                "engine.steering.reroutes": counters.get("reroutes", 0),
                "cluster.router.affinity_share": decisions.get("affinity", 0) / routed,
                "cluster.router.spilled": decisions.get("spilled", 0),
                "cluster.router.cold": decisions.get("cold", 0),
                "cluster.sharded_directory.update_events": system.directory.staleness()[
                    "events"
                ],
            }
        )
        # The router shares the directory, so it never closes it: detach
        # its observers here, while a traced run's wrappers are still on.
        system.directory.close()
    return rep


def _holds(check: Callable, *args: Any) -> bool:
    try:
        check(*args)
    except AssertionError:
        return False
    return True


def _check_caches(verdict: Verdict, caches: list[Any]) -> None:
    verdict.check(
        all(cache.open_sessions == 0 for cache in caches), "open sessions at drain"
    )
    verdict.check(
        all(node.pin_count == 0 for cache in caches for node in cache.tree.iter_nodes()),
        "pinned nodes at drain",
    )
    verdict.check(
        all(cache.used_bytes == cache.recompute_used_bytes() for cache in caches),
        "used_bytes != recompute_used_bytes()",
    )


def _extra(caches: list[Any], key: str) -> float:
    return sum(cache.stats.extra.get(key, 0) for cache in caches)


def _cache_counters(caches: list[Any]) -> dict[str, float]:
    # A replica that failed was reset, so its earlier evictions are not here.
    return {
        "core.radix_tree.nodes_final": sum(cache.tree.n_nodes for cache in caches),
        "core.eviction.evictions": sum(cache.stats.evictions for cache in caches),
        "core.eviction.evicted_bytes": sum(cache.stats.evicted_bytes for cache in caches),
        "core.eviction_index.node_visits": sum(
            cache.eviction_node_visits for cache in caches
        ),
    }


def _build_fleet(seed: int, scale: float) -> SimSystem:
    model = hybrid_7b()
    per_tier = FLEET_STATES * node_state_bytes(model, STATE_TOKENS, True)
    caches: list[Any] = []

    def make_cache() -> TieredMarconiCache:
        cache = TieredMarconiCache(model, per_tier, secondary_bytes=per_tier, alpha=1.0)
        caches.append(cache)  # the joined spare is leak-checked too
        return cache

    for _ in range(FLEET_REPLICAS):
        make_cache()
    directory = ShardedPrefixDirectory(n_shards=8, region_tokens=32)
    router = DirectoryRouter(
        split=True,
        max_imbalance=FLEET_MAX_IMBALANCE,
        transfer_min_tokens=32,
        directory=directory,
    )
    n_lmsys = _sessions(FLEET_LMSYS_SESSIONS, scale)
    n_swebench = _sessions(FLEET_SWEBENCH_SESSIONS, scale)
    tap = StreamTap()
    stream = tap.over(
        mix_streams(
            [
                generate_trace_stream(
                    "lmsys",
                    n_sessions=n_lmsys,
                    seed=seed,
                    session_rate=n_lmsys / FLEET_ARRIVAL_SPAN_S,
                ),
                generate_trace_stream(
                    "swebench",
                    n_sessions=n_swebench,
                    seed=seed,
                    session_rate=n_swebench / FLEET_ARRIVAL_SPAN_S,
                ),
            ]
        )
    )
    probe = Probe(FLEET_PROBE_EVERY)
    kernel = SimulationKernel(
        model,
        list(caches),
        _ProbedLatency(
            transfer_bandwidth_bytes_per_s=FLEET_LINK_BYTES_PER_S, probe=probe
        ),
        router=router,
        scenario=[
            ScenarioEvent(FLEET_FAIL_AT_S, "fail", replica=1),
            ScenarioEvent(FLEET_JOIN_AT_S, "join", cache_factory=make_cache),
        ],
    )
    return SimSystem(
        kernel, caches, stream, 0.0, probe, tap=tap, router=router, directory=directory
    )


def _build_single(
    workload: str,
    sessions: int,
    session_rate: float,
    capacity_states: int,
    probe_every: int,
    max_running: int = 1,
) -> Callable[[int, float], SimSystem]:
    def build(seed: int, scale: float) -> SimSystem:
        model = hybrid_7b()
        trace, gen_s = _generate(workload, sessions, session_rate, seed, scale)
        cache = _flop_aware_cache(model, capacity_states)
        probe = Probe(probe_every)
        kernel = SimulationKernel(
            model,
            [cache],
            _ProbedLatency(probe=probe),
            config=KernelConfig(max_running=max_running),
        )
        return SimSystem(kernel, [cache], trace, gen_s, probe)

    return build


# ----------------------------------------------------------------------
# The live path
# ----------------------------------------------------------------------
@dataclass
class LiveSystem:
    trace: Any
    cache: MarconiCache
    gateway: Gateway
    gen_s: float
    probe: Probe


def _build_live(sessions: int) -> Callable[[int, float], LiveSystem]:
    def build(seed: int, scale: float) -> LiveSystem:
        trace, gen_s = _generate("lmsys", sessions, GATEWAY_SESSION_RATE, seed, scale)
        cache = _flop_aware_cache(hybrid_7b(), GATEWAY_STATES)
        # A queue bound no load here reaches: nothing may shed.
        config = GatewayConfig(n_workers=GATEWAY_WORKERS, max_queue_depth=1 << 30)
        gateway = Gateway(CacheOnlyServer(cache), config)
        return LiveSystem(trace, cache, gateway, gen_s, Probe(GATEWAY_PROBE_EVERY))

    return build


@dataclass
class _Served:
    """Per-round observations of the benchmark's load generator."""

    rounds: list[tuple[int, int]] = field(default_factory=list)
    hit_tokens: int = 0
    input_tokens: int = 0
    ttft_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    gateway_ttft_s: float = 0.0
    queue_s: float = 0.0


async def _client(
    system: LiveSystem,
    session: Any,
    out: _Served,
    speed: Optional[float],
    due: Optional[float],
    tracer: Optional[Tracer],
) -> None:
    """One session's closed loop: the next round waits for the previous
    reply plus (when paced) the scaled think time.  The first round is
    timed from when the session was due, so a stalled loop shows up as
    latency."""
    clock = time.perf_counter
    for k in range(session.n_rounds):
        if speed is not None and k > 0:
            await asyncio.sleep(session.think_times[k] / speed)
        tokens = session.full_input(k)
        outputs = session.rounds[k].output_tokens
        if tracer is not None:
            tracer.tag(tokens, (session.session_id, k))
        submitted = clock()
        try:
            result = await system.gateway.submit(
                tokens, len(outputs), forced_outputs=outputs
            )
        except AdmissionRejected:
            return  # a shed client never sends its remaining rounds
        system.probe.tick()
        # Only a session's arrival is on the open-loop schedule; its later
        # rounds are the client's own closed loop, timed from submission.
        late = 0.0
        if due is not None and k == 0:
            late = max(0.0, submitted - due)
            out.late_s.append(late)
        out.rounds.append((session.session_id, k))
        out.hit_tokens += result.hit_tokens
        out.input_tokens += len(tokens)
        out.ttft_s.append(late + result.ttft_seconds)
        out.gateway_ttft_s += result.ttft_seconds
        out.queue_s += result.queue_seconds


#: asyncio timers fire up to a millisecond late, ten times the median TTFT.
_TIMER_SLACK_S = 0.002


async def _until(due: float) -> None:
    """Return at ``due``: sleep to just short of it, then yield to the loop
    (other tasks keep running) until the clock gets there."""
    delay = due - time.perf_counter() - _TIMER_SLACK_S
    if delay > 0:
        await asyncio.sleep(delay)
    while time.perf_counter() < due:
        await asyncio.sleep(0)


async def _drive(
    system: LiveSystem, speed: Optional[float], tracer: Optional[Tracer]
) -> tuple[_Served, float]:
    """Closed loop over all sessions at once (``speed=None``), or open-loop
    session arrivals at ``speed`` times the trace's own rate."""
    out = _Served()
    await system.gateway.start()
    clients: list[asyncio.Task] = []
    start = system.probe.start()
    for session in system.trace.sessions:
        due = None
        if speed is not None:
            due = start + session.arrival_time / speed
            await _until(due)
        clients.append(
            asyncio.create_task(_client(system, session, out, speed, due, tracer))
        )
    await asyncio.gather(*clients)
    wall = system.probe.stop()
    await system.gateway.close()
    return out, wall


def _trace_rounds(trace: Any) -> set[tuple[int, int]]:
    return {(s.session_id, k) for s in trace.sessions for k in range(s.n_rounds)}


def _replay_saturate(system: LiveSystem, tracer: Optional[Tracer]) -> Rep:
    with system.probe.edges():
        if tracer is None:
            out, wall = asyncio.run(_drive(system, None, None))
        else:
            system.probe.mute()
            with tracer.span("serving.gateway.loop"):
                out, wall = asyncio.run(_drive(system, None, tracer))
    expected = _trace_rounds(system.trace)
    rep = Rep(
        rounds=len(expected),
        served=len(expected & set(out.rounds)),
        wall_s=wall,
        slowdown=system.probe.slowdown,
        hit_tokens=out.hit_tokens,
        input_tokens=out.input_tokens,
        sim_ttft_ms=np.empty(0),
    )
    rep.verdict.check(
        len(out.rounds) == len(expected) and set(out.rounds) == expected,
        "served rounds are not bijective with the trace rounds",
    )
    _check_caches(rep.verdict, [system.cache])
    stats = system.gateway.stats.snapshot()
    rep.verdict.check(
        stats["shed"] == 0 and stats["failed"] == 0, "gateway shed or failed"
    )
    rep.layers = {
        "workloads.sessions": len(system.trace.sessions),
        "workloads.gen_s": system.gen_s,
        "core.cache.hit_tokens": rep.hit_tokens,
        "core.cache.input_tokens": rep.input_tokens,
        "serving.gateway.submitted": stats["submitted"],
        "serving.gateway.completed": stats["completed"],
        "serving.gateway.shed": stats["shed"],
        **_cache_counters([system.cache]),
    }
    return rep


def _paced(seed: int, scale: float) -> Paced:
    system = _build_live(GATEWAY_PACED_SESSIONS)(seed, scale)
    system.probe.mute()  # latency is read here: nothing else on the loop
    out, _ = asyncio.run(_drive(system, GATEWAY_PACED_SPEED, None))
    expected = _trace_rounds(system.trace)
    paced = Paced(
        rounds=len(expected),
        served=len(expected & set(out.rounds)),
        ttft_ms=np.array(out.ttft_s) * 1e3,
        late_ms=np.array(out.late_s) * 1e3,
        queue_share=out.queue_s / out.gateway_ttft_s,
    )
    _check_caches(paced.verdict, [system.cache])
    return paced


def _modelled_gateway(seed: int, scale: float) -> Rep:
    """The kernel's model of the live service replaying the sub-trace the
    live repetition was given (same generator arguments), with four prefill
    slots for the four workers."""
    build = _build_single(
        "lmsys",
        GATEWAY_SATURATE_SESSIONS,
        GATEWAY_SESSION_RATE,
        GATEWAY_STATES,
        CONTENDED_PROBE_EVERY,
        max_running=GATEWAY_WORKERS,
    )
    return _replay_kernel(build(seed, scale), None)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fleet_steer",
            reps=4,
            build=_build_fleet,
            replay=_replay_kernel,
            floors=FLEET_FLOORS,
        ),
        Workload(
            name="cache_contended",
            reps=4,
            build=_build_single(
                "sharegpt",
                CONTENDED_SESSIONS,
                CONTENDED_SESSION_RATE,
                CONTENDED_STATES,
                CONTENDED_PROBE_EVERY,
            ),
            replay=_replay_kernel,
        ),
        Workload(
            name="cache_reuse",
            reps=6,
            build=_build_single(
                "swebench",
                REUSE_SESSIONS,
                REUSE_SESSION_RATE,
                REUSE_STATES,
                REUSE_PROBE_EVERY,
            ),
            replay=_replay_kernel,
        ),
        Workload(
            name="gateway_live",
            reps=4,
            build=_build_live(GATEWAY_SATURATE_SESSIONS),
            replay=_replay_saturate,
            paced=_paced,
            modelled=_modelled_gateway,
        ),
    )
}
