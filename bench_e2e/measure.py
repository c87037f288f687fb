"""One workload, one process: the untraced and the traced measurement.

Two kinds of time.  *Simulated* metrics (``sim_*``, ``token_hit_rate``) are
what the modelled fleet would do: a pure function of ``--seed``, checked to
repeat exactly.  *Host* metrics (``requests_per_s``, ``setup_s``,
``peak_rss_mb``) are what this Python program costs; the two times are
reported at the host's nominal speed (see :mod:`bench_e2e.hostspeed`), with
what the clock read beside them.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Any, Optional

import numpy as np

from bench_e2e.harness import (
    OUT_DIR,
    percentile,
    quartiles,
    samples_beyond,
    supported,
)
from bench_e2e.hostspeed import Probe
from bench_e2e.tracing import tracing
from bench_e2e.workloads import Paced, Rep, Verdict, Workload

#: Before anything is timed, a throwaway system replays a trace this share
#: of a repetition's size, so lazily built tables are not paid by repetition 0.
WARMUP_SHARE = 0.05

#: Sub-trace seeds are ``seed * 1000 + index``; the paced phase of
#: ``gateway_live`` draws its own from the same space.
PACED_INDEX = 901

#: Layer metric -> the spans whose calls it counts.
CALLS = {
    "core.tokens.intern_calls": "core.tokens.intern",
    "core.tokens.hash_calls": "core.tokens.hash",
    "core.radix_tree.match_calls": "core.radix_tree.match",
    "core.radix_tree.insert_calls": "core.radix_tree.insert",
    "core.cache.begin_calls": "core.cache.begin",
    "core.cache.commit_calls": "core.cache.commit",
    "core.cache.abort_calls": "core.cache.abort",
    "core.eviction.select_calls": "core.eviction.select",
    "tiering.receive_calls": "tiering.receive",
    "engine.events.push_calls": "engine.events.push",
    "engine.events.pop_calls": "engine.events.pop",
    "engine.latency.prefill_calls": "engine.latency.prefill",
    "engine.steering.plan_calls": "engine.steering.plan",
    "cluster.router.decide_calls": "cluster.router.decide",
    "cluster.sharded_directory.lookup_calls": "cluster.sharded_directory.lookup",
    "serving.server.serve_calls": "serving.server.serve",
}

#: Layer metric -> the spans whose self time it sums, reported in
#: microseconds per trace round so workloads of different size compare.
SELF_US = {
    "workloads.gen_us": ("workloads.gen",),
    "core.tokens.intern_us": ("core.tokens.intern",),
    "core.tokens.hash_us": ("core.tokens.hash",),
    "core.radix_tree.match_us": ("core.radix_tree.match",),
    "core.radix_tree.insert_us": ("core.radix_tree.insert",),
    "core.cache.begin_us": ("core.cache.begin",),
    "core.cache.commit_us": ("core.cache.commit", "core.cache.abort"),
    "core.eviction.select_us": ("core.eviction.select",),
    "tiering.receive_us": ("tiering.receive",),
    "engine.events.queue_us": ("engine.events.push", "engine.events.pop"),
    "engine.kernel.self_us": ("engine.kernel.run",),
    "engine.latency.prefill_us": ("engine.latency.prefill",),
    "engine.steering.plan_us": ("engine.steering.plan",),
    "cluster.router.decide_us": ("cluster.router.decide",),
    "cluster.sharded_directory.lookup_us": ("cluster.sharded_directory.lookup",),
    "cluster.sharded_directory.update_us": ("cluster.sharded_directory.update",),
    "serving.gateway.loop_self_us": ("serving.gateway.loop",),
    "serving.server.serve_us": ("serving.server.serve",),
}


def _warm_up(workload: Workload, sub_seed: int, scale: float) -> float:
    start = time.perf_counter()
    workload.replay(workload.build(sub_seed, scale * WARMUP_SHARE), None)
    return time.perf_counter() - start


def _set_up(
    workload: Workload, sub_seed: int, scale: float
) -> tuple[Any, float, float]:
    """Build one system ready to replay (trace generation and construction):
    the system, the seconds it took and the host's slowdown around it."""
    probe = Probe()
    with probe.edges():
        probe.start()
        system = workload.build(sub_seed, scale)
        setup_s = probe.stop()
    return system, setup_s, probe.slowdown


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Tally:
    """Rounds attempted/unserved and checks made/failed, over all phases."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, rounds: int, served: int, verdict: Verdict, where: str) -> None:
        self.attempted += rounds + verdict.checks
        self.failed += (rounds - served) + len(verdict.failures)
        if served < rounds:
            self.failures.append(f"{where}: {rounds - served} rounds never served")
        self.failures.extend(f"{where}: {what}" for what in verdict.failures)

    def result(self, metrics: dict[str, dict], detail: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "detail": {**detail, "failures": self.failures},
        }


def _percentile_checked(
    values: np.ndarray, q: float, scale: float, verdict: Verdict, what: str
) -> float:
    # At full size every reported percentile must have >= 10 samples beyond it.
    if scale >= 1.0:
        verdict.check(supported(len(values), q), f"{what}: p{q:g} of {len(values)} samples")
    return percentile(values, q)


def _check_floors(
    workload: Workload,
    counters: dict[str, float],
    replays: int,
    scale: float,
    verdict: Verdict,
) -> None:
    """At full size the layers a workload exists for must have run: each
    floor is per sub-trace, ``counters`` sums over ``replays`` of them."""
    if scale < 1.0:
        return
    for name, floor in workload.floors.items():
        if name in counters:
            verdict.check(
                counters[name] >= floor * replays,
                f"{name}: {counters[name]:g} in {replays} sub-traces, floor {floor:g} each",
            )


def measure_untraced(
    workload: Workload, seed: int, seconds: float, scale: float
) -> dict:
    """End-to-end metrics: one repetition per distinct sub-trace (this
    first cycle is all the simulated metrics pool), then further cycles
    until ``seconds`` are used; a sub-trace replayed again must model the
    very same thing."""
    deadline = time.perf_counter() + seconds
    tally = _Tally()
    own = Verdict()  # checks that span repetitions
    warmup_s = _warm_up(workload, seed * 1000, scale)

    first: list[Rep] = []
    # Per sub-trace, its fastest replay: seconds at the host's nominal speed,
    # and as the clock read them.
    fastest: list[float] = []
    fastest_clock: list[float] = []
    walls: list[float] = []
    slowdowns: list[float] = []
    setups: list[float] = []
    setups_clock: list[float] = []

    def repetition(index: int) -> None:
        sub = index % workload.reps
        system, setup_s, setup_slowdown = _set_up(workload, seed * 1000 + sub, scale)
        rep = workload.replay(system, None)
        del system
        gc.collect()  # peak RSS is one repetition's, not two
        tally.add(rep.rounds, rep.served, rep.verdict, f"repetition {index}")
        setups.append(setup_s / setup_slowdown)
        setups_clock.append(setup_s)
        walls.append(rep.wall_s)
        slowdowns.append(rep.slowdown)
        if index < workload.reps:
            first.append(rep)
            fastest.append(rep.wall_s / rep.slowdown)
            fastest_clock.append(rep.wall_s)
        else:
            own.check(
                rep.same_simulation(first[sub]),
                f"sub-trace {sub} replayed differently in repetition {index}",
            )
            fastest[sub] = min(fastest[sub], rep.wall_s / rep.slowdown)
            fastest_clock[sub] = min(fastest_clock[sub], rep.wall_s)

    for index in range(workload.reps):
        repetition(index)
    # Read once every distinct sub-trace was replayed, so it depends neither
    # on how many further cycles the host fits in nor, on the live path, on
    # the kernel modelling the same sub-traces in this process.
    peak_rss_mb = _peak_rss_mb()
    modelled = first
    if workload.modelled is not None:
        modelled = [
            workload.modelled(seed * 1000 + sub, scale) for sub in range(workload.reps)
        ]
        for sub, rep in enumerate(modelled):
            tally.add(rep.rounds, rep.served, rep.verdict, f"modelled sub-trace {sub}")
            own.check(
                rep.rounds == first[sub].rounds,
                f"modelled sub-trace {sub} is not the one served live",
            )
    index = workload.reps
    # Go on while one more repetition still fits.
    while time.perf_counter() + setups_clock[-1] + walls[-1] < deadline:
        repetition(index)
        index += 1

    pooled = {  # the call counts among the floors exist in the traced run only
        name: sum(rep.layers[name] for rep in first)
        for name in workload.floors
        if name in first[0].layers
    }
    _check_floors(workload, pooled, len(first), scale, own)
    sim_ttft = np.concatenate([rep.sim_ttft_ms for rep in modelled])
    p50 = percentile(sim_ttft, 50)
    p95 = _percentile_checked(sim_ttft, 95, scale, own, "sim_ttft")
    tally.add(0, 0, own, "run")

    served = sum(rep.served for rep in first)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        # Every distinct sub-trace once, each at its fastest replay: what is
        # left after the probe is one-sided (first-touch page faults make
        # cache_reuse's first repetition of a process three times slower).
        "requests_per_s": {"value": served / sum(fastest), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "token_hit_rate": {
            "value": sum(r.hit_tokens for r in first) / sum(r.input_tokens for r in first),
            "unit": "ratio",
        },
        "sim_ttft_p50_ms": {"value": p50, "unit": "ms"},
        "sim_ttft_p95_ms": {"value": p95, "unit": "ms"},
    }
    detail = {
        "sim_ttft_source": (
            "pooled sub-traces"
            if workload.modelled is None
            else "same sub-traces replayed through the kernel's model of the service"
        ),
        "repetitions": len(walls),
        "sub_traces": workload.reps,
        "repetition_walls_s": walls,
        "repetition_slowdowns": slowdowns,
        "repetition_rounds": [rep.rounds for rep in first],
        "requests_per_s_clock": served / sum(fastest_clock),
        "setup_clock_s": statistics.median(setups_clock),
        "slowdown_quartiles": list(quartiles(slowdowns)),
        "warmup_s": warmup_s,
        "sim_ttft_samples": len(sim_ttft),
        # Not gated: its seed-to-seed spread is too wide for any bound.
        "sim_ttft_p99_ms": percentile(sim_ttft, 99),
        "sim_ttft_p99_beyond": samples_beyond(len(sim_ttft), 99),
    }
    return tally.result(metrics, detail)


def measure_traced(
    workload: Workload, seed: int, seconds: float, scale: float, layer_units: dict[str, str]
) -> dict:
    """Per-layer metrics of sub-trace 0: pairs of one untraced and one
    traced replay while another pair fits into ``seconds``.  Self times are medians over
    the traced replays, the overhead compares the two medians, and each
    traced replay must model exactly what its untraced partner did.  The
    last replay's spans go to ``out/<workload>.spans.jsonl``."""
    deadline = time.perf_counter() + seconds
    tally = _Tally()
    own = Verdict()
    sub_seed = seed * 1000
    _warm_up(workload, sub_seed, scale)

    paced: Optional[Paced] = None
    if workload.paced is not None:
        # Latency is read untraced: the wrappers would be in the way.
        paced = workload.paced(seed * 1000 + PACED_INDEX, scale)
        tally.add(paced.rounds, paced.served, paced.verdict, "paced")

    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    self_seconds: list[dict[str, float]] = []
    while True:
        pair, pair_start = len(traced_walls), time.perf_counter()
        system, _, _ = _set_up(workload, sub_seed, scale)
        base = workload.replay(system, None)
        tally.add(base.rounds, base.served, base.verdict, f"untraced {pair}")
        del system
        gc.collect()
        system, _, _ = _set_up(workload, sub_seed, scale)
        with tracing() as tracer:
            rep = workload.replay(system, tracer)
        tally.add(rep.rounds, rep.served, rep.verdict, f"traced {pair}")
        del system
        gc.collect()
        own.check(rep.same_simulation(base), "tracing changed what was simulated")
        totals = tracer.by_name()
        covered = sum(self_s for _, self_s in totals.values())
        own.check(
            abs(covered / rep.wall_s - 1.0) <= 0.05,
            f"span self times sum to {covered:.4f}s of a {rep.wall_s:.4f}s wall",
        )
        untraced_walls.append(base.wall_s)
        traced_walls.append(rep.wall_s)
        self_seconds.append({name: self_s for name, (_, self_s) in totals.items()})
        now = time.perf_counter()
        if now + (now - pair_start) >= deadline:  # another pair would not fit
            break
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT_DIR / f"{workload.name}.spans.jsonl")

    rounds = rep.rounds
    values: dict[str, float] = dict(rep.layers)
    # Generation paid in set-up; a streamed trace adds its pull spans below.
    values["workloads.gen_us"] = values.pop("workloads.gen_s") / rounds * 1e6
    for metric, span in CALLS.items():
        values[metric] = totals.get(span, (0, 0.0))[0]
    for metric, spans in SELF_US.items():
        per_rep = [sum(run.get(span, 0.0) for span in spans) for run in self_seconds]
        values[metric] = values.get(metric, 0.0) + statistics.median(per_rep) / rounds * 1e6
    events = values.get("engine.kernel.events", 0)
    if events:
        values["engine.kernel.us_per_event"] = (
            values["engine.kernel.self_us"] * rounds / events
        )
        values["engine.kernel.sim_ttft_p99_ms"] = _percentile_checked(
            rep.sim_ttft_ms, 99, scale, own, "sim_ttft"
        )
    if paced is not None:
        p50 = percentile(paced.ttft_ms, 50)
        values.update(
            {
                "serving.gateway.ttft_p50_us": p50 * 1e3,
                "serving.gateway.ttft_p95_x_p50": percentile(paced.ttft_ms, 95) / p50,
                "serving.gateway.ttft_p99_x_p50": percentile(paced.ttft_ms, 99) / p50,
                "serving.gateway.queue_share": paced.queue_share,
                "serving.replay.late_p95_x_p50": percentile(paced.late_ms, 95) / p50,
            }
        )
    _check_floors(workload, values, 1, scale, own)
    values["trace.overhead_share"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    values["trace.spans"] = len(tracer.names)
    tally.add(0, 0, own, "run")

    unknown = sorted(set(values) - set(layer_units))
    if unknown:
        raise KeyError(f"layer metrics missing from BENCHMARK.json: {unknown}")
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in layer_units.items()
    }
    detail = {
        "pairs": len(traced_walls),
        "traced_walls_s": traced_walls,
        "untraced_walls_s": untraced_walls,
        "rounds": rounds,
        "self_seconds": {
            name: statistics.median(run.get(name, 0.0) for run in self_seconds)
            for name in sorted(totals)
        },
        "calls": {name: calls for name, (calls, _) in sorted(totals.items())},
    }
    return tally.result(metrics, detail)
