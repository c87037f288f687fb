"""Wall-clock trace replay through the live gateway.

The offline engines replay a trace in virtual time; this module replays
the same traces against a running :class:`~repro.serving.gateway.Gateway`
in *real* time — at recorded speed (``speed=1``), scaled (``speed=50``
plays a 100-second trace in two), or as fast as the gateway can drain it
(``speed=None``).  Sessions stay closed-loop: round ``k+1`` is submitted
one (scaled) think-time after round ``k``'s response lands, and a session
whose round is shed by admission control is abandoned — exactly what a
real client facing a 429 would experience.

Replays are teacher-forced (``forced_outputs`` carries the trace's output
tokens), so every committed sequence matches the trace's next-round
inputs and the prefix-cache behaviour is comparable, request for request,
with an offline :class:`~repro.engine.server.ServingSimulator` run over
the same trace.  :class:`CacheOnlyServer` makes that comparison cheap: it
speaks the same serve-steps protocol as the real model server but runs
cache transactions only, so a million-round replay exercises the gateway
and prefix cache without NumPy model compute.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.core.interfaces import Clock, monotonic_counter
from repro.serving.engine import (
    GREEDY,
    DecodeParams,
    ServedRequest,
    ServeSteps,
    checked_request,
)
from repro.serving.gateway import AdmissionRejected, Gateway
from repro.workloads.trace import Trace, TraceSession, TraceStream


class CacheOnlyServer:
    """Serve-steps backend with no model: pure prefix-cache transactions.

    Drives the same ``begin → (decode steps) → commit`` session lifecycle
    as :class:`~repro.serving.engine.ExactReuseServer`, but the "decode"
    only steps through the forced output tokens (trace replay never
    invents tokens).  Useful wherever the question is about cache/gateway
    behaviour rather than model output: replays, throughput benchmarks,
    overload tests.
    """

    def __init__(self, cache: Any, *, clock: Clock | None = None) -> None:
        self.cache = cache
        self.clock: Clock = clock if clock is not None else monotonic_counter()

    def serve_steps(
        self,
        input_tokens: np.ndarray,
        n_output: int,
        *,
        params: DecodeParams = GREEDY,
        forced_outputs: Optional[np.ndarray] = None,
    ) -> ServeSteps:
        input_tokens, n_output, forced = checked_request(
            input_tokens, n_output, forced_outputs
        )
        with self.cache.begin(input_tokens, self.clock()) as session:
            hit = session.hit_tokens
            # Without a model there is nothing to sample: a cache-only serve
            # echoes the forced tokens (or zeros, which keeps the byte
            # accounting of synthetic benchmark requests honest).  The first
            # goes out before the one-time conversion of the rest: TTFT.
            if n_output:
                yield int(forced[0]) if forced is not None else 0
            output = forced.tolist() if forced is not None else [0] * n_output
            yield from output[1:]
            output_tokens = np.asarray(output, dtype=np.int32)
            full = input_tokens  # n_output == 0: exactly the input is committed
            if output:
                full = np.concatenate([input_tokens, output_tokens])
            session.commit(full, self.clock())
        return ServedRequest(
            output_tokens=output_tokens,
            hit_tokens=hit,
            prefilled_tokens=len(input_tokens) - hit,
            full_sequence=full,
        )


@dataclass
class ReplayRecord:
    """Outcome of one trace round pushed through the gateway."""

    session_id: int
    round_index: int
    status: str  # "served" | "shed"
    hit_tokens: int = 0
    input_len: int = 0
    output_len: int = 0
    ttft_seconds: float = 0.0
    from_response_cache: bool = False
    shed_reason: str = ""


@dataclass
class ReplayReport:
    """Aggregate of one replay run (mirrors the offline summary surface)."""

    records: list[ReplayRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    abandoned_rounds: int = 0  # rounds never submitted (session shed earlier)
    gateway_stats: dict = field(default_factory=dict)

    @property
    def n_requests(self) -> int:
        return len(self.records)

    @property
    def served(self) -> int:
        return sum(1 for r in self.records if r.status == "served")

    @property
    def shed(self) -> int:
        return sum(1 for r in self.records if r.status == "shed")

    @property
    def hit_tokens(self) -> int:
        return sum(r.hit_tokens for r in self.records if r.status == "served")

    @property
    def input_tokens(self) -> int:
        return sum(r.input_len for r in self.records if r.status == "served")

    @property
    def token_hit_rate(self) -> float:
        total = self.input_tokens
        if total == 0:
            return 0.0
        return self.hit_tokens / total

    def hit_counts(self) -> list[tuple[int, int, int]]:
        """Order-insensitive per-request view: (session, round, hit_tokens)."""
        return sorted(
            (r.session_id, r.round_index, r.hit_tokens)
            for r in self.records
            if r.status == "served"
        )

    def to_dict(self) -> dict:
        return {
            "n_requests": self.n_requests,
            "served": self.served,
            "shed": self.shed,
            "abandoned_rounds": self.abandoned_rounds,
            "hit_tokens": self.hit_tokens,
            "input_tokens": self.input_tokens,
            "token_hit_rate": self.token_hit_rate,
            "wall_seconds": self.wall_seconds,
            "gateway": dict(self.gateway_stats),
        }


class TraceReplayer:
    """Drives a gateway from any :class:`Trace` / :class:`TraceStream`.

    ``speed`` scales trace time to wall time: ``1.0`` replays in real
    time, ``60.0`` plays a minute of trace per second, ``None`` ignores
    timing entirely and lets backpressure set the pace.  ``tier_for``
    maps each session to an SLO tier name (default: everything
    ``"interactive"``).
    """

    def __init__(
        self,
        gateway: Gateway,
        *,
        speed: Optional[float] = None,
        tier_for: Optional[Callable[[TraceSession], str]] = None,
    ) -> None:
        if speed is not None and speed <= 0:
            raise ValueError(f"speed must be positive (or None), got {speed}")
        self.gateway = gateway
        self.speed = speed
        self.tier_for = tier_for or (lambda session: "interactive")

    async def run(self, trace: Trace | TraceStream) -> ReplayReport:
        """Replay the whole trace; resolves once every session finished."""
        stream = TraceStream.from_trace(trace) if isinstance(trace, Trace) else trace
        await self.gateway.start()
        report = ReplayReport()
        start = self.gateway.clock()
        tasks: list[asyncio.Task] = []
        # Sessions are pulled lazily in arrival order; with a speed set we
        # sleep the (scaled) gap to each arrival before spawning its
        # closed-loop task, so memory tracks *active* sessions only.
        for session in stream.iter_sessions():
            if self.speed is not None:
                due = start + session.arrival_time / self.speed
                delay = due - self.gateway.clock()
                if delay > 0:
                    await asyncio.sleep(delay)
            tasks.append(
                asyncio.create_task(self._play_session(session, report))
            )
        if tasks:
            await asyncio.gather(*tasks)
        report.wall_seconds = self.gateway.clock() - start
        report.gateway_stats = self.gateway.stats.snapshot()
        return report

    async def _play_session(self, session: TraceSession, report: ReplayReport) -> None:
        tier = self.tier_for(session)
        for k in range(session.n_rounds):
            think = session.think_times[k]
            if self.speed is not None and think > 0:
                await asyncio.sleep(think / self.speed)
            outputs = session.rounds[k].output_tokens
            try:
                result = await self.gateway.submit(
                    session.full_input(k),
                    len(outputs),
                    tier=tier,
                    forced_outputs=outputs,
                )
            except AdmissionRejected as rejection:
                report.records.append(
                    ReplayRecord(
                        session_id=session.session_id,
                        round_index=k,
                        status="shed",
                        shed_reason=rejection.reason,
                    )
                )
                # Closed-loop: a shed round means the client never saw a
                # response, so the session's remaining rounds never happen.
                report.abandoned_rounds += session.n_rounds - k - 1
                return
            report.records.append(
                ReplayRecord(
                    session_id=session.session_id,
                    round_index=k,
                    status="served",
                    hit_tokens=result.hit_tokens,
                    input_len=len(session.full_input(k)),
                    output_len=len(outputs),
                    ttft_seconds=result.ttft_seconds,
                    from_response_cache=result.from_response_cache,
                )
            )
