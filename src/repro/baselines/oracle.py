"""Artifact policy V3: the offline-optimal, static-alpha oracle.

The paper's artifact includes a third eviction policy that "sweeps over
possible values of alpha and selects the one that maximizes the hit rate" —
an upper bound for what Marconi's online bootstrap tuner can achieve with a
static alpha.  It requires the full request log up front, so it lives here
as an offline procedure rather than an online cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.cache import MarconiCache
from repro.core.interfaces import replay_log
from repro.models.config import ModelConfig

DEFAULT_ALPHA_GRID: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


@dataclass
class OracleResult:
    """Outcome of the static-alpha sweep."""

    best_alpha: float
    hit_rates: dict[float, float]

    @property
    def best_hit_rate(self) -> float:
        return self.hit_rates[self.best_alpha]


def tune_static_alpha(
    model: ModelConfig,
    capacity_bytes: int,
    log: Sequence[tuple],
    alpha_grid: Sequence[float] = DEFAULT_ALPHA_GRID,
) -> OracleResult:
    """Sweep static alphas over the full log; return the hit-rate maximizer.

    ``log`` is a cache log :func:`~repro.core.interfaces.replay_log` serves,
    e.g. ``trace.nominal_log()``.  Ties break toward the
    smaller alpha (the more recency-respecting configuration), matching the
    online tuner's convention.
    """
    if not log:
        raise ValueError("cannot tune on an empty log")
    if not alpha_grid:
        raise ValueError("alpha_grid must be non-empty")
    hit_rates: dict[float, float] = {}
    for alpha in alpha_grid:
        cache = MarconiCache(
            model, capacity_bytes, eviction="flop_aware", alpha=alpha
        )
        replay_log(cache, log)
        hit_rates[alpha] = cache.stats.token_hit_rate
    best = max(hit_rates, key=lambda a: (hit_rates[a], -a))
    return OracleResult(best_alpha=best, hit_rates=hit_rates)
