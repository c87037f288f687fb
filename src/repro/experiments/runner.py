"""Run (trace, policy) pairs through the serving simulator, with caching.

Both caches here are keyed by *values*, never by object identity or
module-global mutable state, so they stay correct when the experiment
harness fans out across process-pool workers (each worker process holds
its own instances; forked copies cannot alias results of different specs
the way ``id(trace)``-keyed entries could after garbage collection).
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache
from typing import Hashable, Optional, Union

from repro.baselines.registry import make_cache
from repro.engine.latency import LatencyModel
from repro.engine.results import EngineResult
from repro.engine.server import simulate_trace
from repro.models.config import ModelConfig
from repro.workloads.registry import generate_trace
from repro.workloads.sessions import WorkloadParams
from repro.workloads.trace import Trace, TraceStream


@lru_cache(maxsize=32)
def _cached_trace(workload: str, params: WorkloadParams) -> Trace:
    # WorkloadParams is frozen (hashable); keying by the whole object keeps
    # every generation knob part of the cache identity.
    return generate_trace(workload, params)


def get_trace(workload: str, params: WorkloadParams) -> Trace:
    """Generate (or fetch from the in-process cache) a deterministic trace."""
    return _cached_trace(workload, params)


def clear_trace_cache() -> None:
    """Drop memoized traces (tests and memory-conscious long runs)."""
    _cached_trace.cache_clear()


class ResultCache:
    """A bounded, explicitly keyed memo of deterministic simulation results.

    Keys are full run specifications (trace identity by value via
    :meth:`Trace.cache_key`, plus model/policy/config scalars), so two
    different runs can never collide — unlike the previous module-global
    dict keyed by ``id(trace)``, which could alias after garbage
    collection and leaked across forked workers.  Instances are cheap;
    parallel workers each build their own.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, EngineResult] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[EngineResult]:
        result = self._entries.get(key)
        if result is not None:
            self._entries.move_to_end(key)
        return result

    def put(self, key: Hashable, result: EngineResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


#: Process-local default cache used when callers do not pass their own.
_default_result_cache = ResultCache()


def default_result_cache() -> ResultCache:
    """The process-local result cache behind :func:`run_policy_on_trace`."""
    return _default_result_cache


def clear_result_cache() -> None:
    """Drop memoized simulation results (tests and long-lived processes)."""
    _default_result_cache.clear()


def result_key(
    model: ModelConfig,
    trace: Union[Trace, TraceStream],
    policy: str,
    capacity_bytes: int,
    latency: Optional[LatencyModel],
    block_size: int,
    alpha: Optional[float],
) -> tuple:
    """The full-spec cache key of one deterministic simulation run.

    Traces key by value — header plus content fingerprint, so two traces
    share a key only when their sessions match byte for byte.  Streams
    key by their recipe identity when they have one; anonymous streams
    (``cache_key()`` is ``None``) fall back to object identity, trading
    cross-process reuse for guaranteed non-aliasing.
    """
    trace_key = getattr(trace, "cache_key", None)
    identity = trace_key() if trace_key is not None else None
    if identity is None:
        identity = ("object", id(trace))
    return (identity, model, policy, capacity_bytes, latency, block_size, alpha)


def run_policy_on_trace(
    model: ModelConfig,
    trace: Union[Trace, TraceStream],
    policy: str,
    capacity_bytes: int,
    *,
    latency: Optional[LatencyModel] = None,
    block_size: int = 32,
    alpha: Optional[float] = None,
    use_cache: bool = True,
    result_cache: Optional[ResultCache] = None,
) -> EngineResult:
    """Simulate one policy over one trace (memoized; runs are deterministic)."""
    memo = result_cache if result_cache is not None else _default_result_cache
    key = result_key(model, trace, policy, capacity_bytes, latency, block_size, alpha)
    if use_cache:
        cached = memo.get(key)
        if cached is not None:
            return cached
    cache = make_cache(
        policy, model, capacity_bytes, block_size=block_size, alpha=alpha
    )
    result = simulate_trace(model, cache, trace, latency, policy_name=policy)
    if hasattr(cache, "alpha"):
        result.cache_stats["alpha"] = cache.alpha
    if use_cache:
        memo.put(key, result)
    return result


def run_policies(
    model: ModelConfig,
    trace: Union[Trace, TraceStream],
    policies: tuple[str, ...],
    capacity_bytes: int,
    *,
    latency: Optional[LatencyModel] = None,
    block_size: int = 32,
    result_cache: Optional[ResultCache] = None,
) -> dict[str, EngineResult]:
    """Simulate several policies over the same trace (fresh cache each)."""
    return {
        policy: run_policy_on_trace(
            model,
            trace,
            policy,
            capacity_bytes,
            latency=latency,
            block_size=block_size,
            result_cache=result_cache,
        )
        for policy in policies
    }
