"""Arrival processes: Poisson session starts and think-time gaps.

The paper's microbenchmarks vary two timing knobs (Fig. 13): the session
arrival rate (sessions per second, open-loop across sessions) and the
average response time between a session's requests (human typing / IDE
interaction, closed-loop within a session).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PoissonProcess:
    """Homogeneous Poisson arrivals at ``rate`` events per second."""

    rate: float

    def __post_init__(self) -> None:
        if not 0 < self.rate < math.inf:  # NaN fails both bounds
            raise ValueError(f"rate must be positive and finite, got {self.rate!r}")

    def arrival_times(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """First ``n`` arrival times (cumulative exponential gaps)."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        gaps = rng.exponential(scale=1.0 / self.rate, size=n)
        return np.cumsum(gaps)


def exponential_think_times(
    rng: np.random.Generator, n_rounds: int, mean_seconds: float
) -> list[float]:
    """Think-time gaps for one session: 0 before round 0, exp(mean) after.

    The gap models user response time (or an agent's environment
    interaction latency) between receiving round ``k``'s response and
    issuing round ``k + 1``.
    """
    if n_rounds <= 0:
        raise ValueError(f"n_rounds must be positive, got {n_rounds}")
    if mean_seconds < 0:
        raise ValueError(f"mean_seconds must be non-negative, got {mean_seconds}")
    if n_rounds == 1:
        return [0.0]
    gaps = rng.exponential(scale=mean_seconds, size=n_rounds - 1) if mean_seconds > 0 else np.zeros(n_rounds - 1)
    return [0.0] + [float(g) for g in gaps]
