"""Capacity planning: hit-rate-vs-budget curves and sizing recommendations.

The operator-facing question behind the paper's Fig. 11: *how much cache do
I need for this workload?*  The planner replays a representative trace at
candidate budgets (nominal order — zero service latency — so the answer
depends only on the workload and policy, not on a latency model) and
either reports the full curve or searches for the smallest budget that
meets a target token hit rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.registry import make_cache
from repro.core.interfaces import replay_log
from repro.models.config import ModelConfig
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class CapacityPoint:
    """Token hit rate measured at one cache budget."""

    capacity_bytes: int
    token_hit_rate: float


def _replay_hit_rate(
    model: ModelConfig, trace: Trace, capacity_bytes: int, policy: str, **kwargs
) -> float:
    cache = make_cache(policy, model, capacity_bytes, **kwargs)
    replay_log(cache, trace.nominal_log())
    return cache.stats.token_hit_rate


def capacity_curve(
    model: ModelConfig,
    trace: Trace,
    capacities: list[int],
    policy: str = "marconi",
    **kwargs,
) -> list[CapacityPoint]:
    """Measure the hit rate at each candidate budget (ascending order)."""
    if not capacities:
        raise ValueError("need at least one candidate capacity")
    if any(c <= 0 for c in capacities):
        raise ValueError("capacities must be positive")
    return [
        CapacityPoint(c, _replay_hit_rate(model, trace, c, policy, **kwargs))
        for c in sorted(capacities)
    ]


@dataclass(frozen=True)
class CapacityRecommendation:
    """Outcome of a target-driven capacity search."""

    capacity_bytes: int
    token_hit_rate: float
    target_hit_rate: float
    attainable: bool

    @property
    def meets_target(self) -> bool:
        return self.token_hit_rate >= self.target_hit_rate


def recommend_capacity(
    model: ModelConfig,
    trace: Trace,
    target_hit_rate: float,
    *,
    low_bytes: int,
    high_bytes: int,
    policy: str = "marconi",
    rel_tol: float = 0.05,
    **kwargs,
) -> CapacityRecommendation:
    """Smallest budget in ``[low, high]`` meeting ``target_hit_rate``.

    Hit rate is non-decreasing in capacity up to replay noise, so a binary
    search converges; ``rel_tol`` bounds the final bracket width relative
    to the answer.  When even ``high_bytes`` misses the target, the result
    carries ``attainable=False`` with the hit rate measured at the top of
    the range (the workload's reuse opportunity may simply be below the
    target — check :func:`repro.analysis.taxonomy.classify_trace`).
    """
    if not 0.0 < target_hit_rate < 1.0:
        raise ValueError(f"target_hit_rate must be in (0, 1), got {target_hit_rate}")
    if not 0 < low_bytes < high_bytes:
        raise ValueError("need 0 < low_bytes < high_bytes")
    if not 0 < rel_tol < 1:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")

    top_rate = _replay_hit_rate(model, trace, high_bytes, policy, **kwargs)
    if top_rate < target_hit_rate:
        return CapacityRecommendation(
            capacity_bytes=high_bytes,
            token_hit_rate=top_rate,
            target_hit_rate=target_hit_rate,
            attainable=False,
        )

    low, high = low_bytes, high_bytes
    best_rate = top_rate
    while high - low > rel_tol * high:
        mid = (low + high) // 2
        rate = _replay_hit_rate(model, trace, mid, policy, **kwargs)
        if rate >= target_hit_rate:
            high, best_rate = mid, rate
        else:
            low = mid
    return CapacityRecommendation(
        capacity_bytes=high,
        token_hit_rate=best_rate,
        target_hit_rate=target_hit_rate,
        attainable=True,
    )
