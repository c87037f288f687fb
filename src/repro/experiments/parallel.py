"""Process-pool execution of simulation runs: pickle-safe specs, keyed caches.

Marconi-style studies sweep the cartesian product of cache sizes, arrival
patterns, and policies; every point is an independent deterministic
simulation, which makes the sweep embarrassingly parallel.  This module is
the one place that fan-out lives:

* :class:`RunSpec` — a frozen, pickle-safe description of one simulation
  (workload params by value, never a live trace or cache object), so
  specs can cross process boundaries and key caches;
* :func:`run_specs` — the sweep engine: serial in-process when
  ``n_workers <= 1`` (sharing the process's trace/result caches), a
  ``ProcessPoolExecutor`` otherwise.  Workers rebuild everything from the
  spec and use only their own process-local caches (see
  :class:`repro.experiments.runner.ResultCache`), aggregate their chunk's
  results, and ship them back in order.

Specs are grouped by trace identity before dispatch so chunk-mates share
generated traces inside each worker's ``lru_cache``; results are returned
in the caller's original spec order regardless.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import multiprocessing

from repro.engine.latency import LatencyModel
from repro.engine.results import EngineResult
from repro.models.config import ModelConfig
from repro.workloads.sessions import WorkloadParams


@dataclass(frozen=True)
class RunSpec:
    """One simulation point, described entirely by value.

    Everything needed to execute the run in a fresh process: the trace is
    named by ``(workload, params)`` and regenerated (or fetched from the
    worker's trace cache), never shipped.  ``model``/``latency`` default
    to the experiment harness defaults when ``None``.  ``tag`` is an
    opaque caller-side correlation handle (e.g. ``"cache=4GB"``) carried
    through untouched.
    """

    workload: str
    params: WorkloadParams
    policy: str
    capacity_bytes: int
    model: Optional[ModelConfig] = None
    latency: Optional[LatencyModel] = None
    block_size: int = 32
    alpha: Optional[float] = None
    tag: str = ""

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {self.capacity_bytes}"
            )

    def trace_key(self) -> tuple:
        """Identity of the trace this spec replays (grouping key)."""
        return (self.workload, self.params)


def execute_spec(spec: RunSpec, *, use_cache: bool = True) -> EngineResult:
    """Run one spec in the current process (worker and serial entry point).

    Imports are deferred so forked workers pay them once; all caching is
    process-local and keyed by value, so concurrent workers can never
    observe each other's (or the parent's pre-fork) stale entries.
    """
    from repro.experiments.config import default_latency, default_model
    from repro.experiments.runner import get_trace, run_policy_on_trace

    model = spec.model if spec.model is not None else default_model()
    latency = spec.latency if spec.latency is not None else default_latency()
    trace = get_trace(spec.workload, spec.params)
    return run_policy_on_trace(
        model,
        trace,
        spec.policy,
        spec.capacity_bytes,
        latency=latency,
        block_size=spec.block_size,
        alpha=spec.alpha,
        use_cache=use_cache,
    )


def _run_chunk(specs: Sequence[RunSpec]) -> list[EngineResult]:
    """Worker-side aggregation: run a whole chunk, return results in order.

    One IPC round-trip per chunk instead of per spec, and chunk-mates
    share the worker's trace cache (chunks are built trace-contiguous).
    """
    return [execute_spec(spec) for spec in specs]


def _chunk_by_trace(
    specs: Sequence[RunSpec], n_chunks: int
) -> list[list[tuple[int, RunSpec]]]:
    """Split specs into at most ``n_chunks`` trace-contiguous chunks.

    Specs are stably grouped by trace identity so a worker regenerates
    each trace once, then dealt round-robin by *group* to balance load;
    original indices ride along so results can be re-ordered.
    """
    indexed = list(enumerate(specs))
    groups: dict[tuple, list[tuple[int, RunSpec]]] = {}
    for index, spec in indexed:
        groups.setdefault(spec.trace_key(), []).append((index, spec))
    chunks: list[list[tuple[int, RunSpec]]] = [[] for _ in range(n_chunks)]
    for position, group in enumerate(groups.values()):
        chunks[position % n_chunks].extend(group)
    return [chunk for chunk in chunks if chunk]


def default_workers() -> int:
    """Worker count when the caller does not choose: one per CPU, min 1."""
    return max(1, os.cpu_count() or 1)


def run_specs(
    specs: Sequence[RunSpec],
    n_workers: Optional[int] = None,
    *,
    mp_context: Optional[str] = None,
) -> list[EngineResult]:
    """Execute every spec and return results in spec order.

    ``n_workers <= 1`` (or a single spec) runs serially in-process,
    sharing the process's memoized traces and results.  Otherwise a
    ``ProcessPoolExecutor`` fans trace-contiguous chunks out to workers;
    each worker aggregates its chunk locally and the parent reassembles
    results into the caller's order.  Simulations are deterministic, so
    the parallel path returns exactly what the serial path would.
    """
    specs = list(specs)
    if not specs:
        return []
    if n_workers is None:
        n_workers = default_workers()
    if n_workers <= 1 or len(specs) == 1:
        return [execute_spec(spec) for spec in specs]

    method = mp_context or (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else multiprocessing.get_start_method()
    )
    context = multiprocessing.get_context(method)
    chunks = _chunk_by_trace(specs, n_chunks=max(n_workers * 2, 1))
    results: list[Optional[EngineResult]] = [None] * len(specs)
    with ProcessPoolExecutor(
        max_workers=min(n_workers, len(chunks)), mp_context=context
    ) as pool:
        payloads = [[spec for _, spec in chunk] for chunk in chunks]
        for chunk, chunk_results in zip(chunks, pool.map(_run_chunk, payloads)):
            for (index, _), result in zip(chunk, chunk_results):
                results[index] = result
    return results  # type: ignore[return-value]
