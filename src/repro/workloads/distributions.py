"""Length and count distributions for synthetic traces.

Sequence lengths in LLM traffic are famously heavy-tailed; the paper's
Fig. 6 histograms show lognormal-looking bodies with dataset-specific tails.
We model token counts as clipped lognormals (parameterized by their median,
which is more interpretable than the underlying mu) and per-session round
counts as clipped geometrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class LogNormalLength:
    """Clipped lognormal over token counts.

    ``median`` is the distribution median (``exp(mu)``); ``sigma`` is the
    log-space standard deviation controlling tail heaviness.
    """

    median: float
    sigma: float
    minimum: int = 1
    maximum: int = 1 << 20

    def __post_init__(self) -> None:
        if self.median <= 0:
            raise ValueError(f"median must be positive, got {self.median}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if not 1 <= self.minimum <= self.maximum:
            raise ValueError(
                f"need 1 <= minimum <= maximum, got [{self.minimum}, {self.maximum}]"
            )

    @cached_property
    def mu(self) -> float:
        return math.log(self.median)

    @property
    def mean(self) -> float:
        """Mean of the *unclipped* lognormal."""
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def sample(self, rng: np.random.Generator) -> int:
        """``int(sample_many(rng, 1)[0])``, drawn as one scalar from the same
        stream.  ``round`` is half-to-even like ``np.rint``; a draw at or past
        ``maximum`` (``inf`` included, which ``round`` refuses) is clipped
        before it."""
        raw = rng.lognormal(self.mu, self.sigma)
        if raw >= self.maximum:
            return self.maximum
        return max(self.minimum, round(raw))

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raw = rng.lognormal(mean=self.mu, sigma=self.sigma, size=size)
        return np.clip(np.rint(raw), self.minimum, self.maximum).astype(np.int64)


@dataclass(frozen=True)
class GeometricCount:
    """Clipped geometric over small counts (e.g. rounds per session)."""

    mean: float
    minimum: int = 1
    maximum: int = 1 << 16

    def __post_init__(self) -> None:
        if self.mean < 1:
            raise ValueError(f"mean must be >= 1, got {self.mean}")
        if not 1 <= self.minimum <= self.maximum:
            raise ValueError(
                f"need 1 <= minimum <= maximum, got [{self.minimum}, {self.maximum}]"
            )

    def sample(self, rng: np.random.Generator) -> int:
        # Geometric with support {1, 2, ...} and the requested mean.
        p = 1.0 / self.mean
        value = int(rng.geometric(p))
        return min(max(value, self.minimum), self.maximum)


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalized Zipf popularity weights over ``n`` items."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()
