"""Bootstrap tuning of the FLOP-efficiency weight alpha (paper section 4.2).

Marconi balances recency against FLOP efficiency with a single weight.  The
paper tunes it online: start at ``alpha = 0`` (pure LRU) until the first
eviction — before that, eviction decisions don't exist so there is nothing
to tune — then snapshot the radix tree, keep serving with LRU while
recording a bootstrap window of ``5-15x`` the requests seen so far, and
finally grid-search alpha by replaying the recorded window against the
snapshot, adopting the hit-rate-maximizing value.

The paper parallelizes the grid search across CPU cores to hide its
latency; the replay here is synchronous (the adopted alpha is identical,
only wall-clock differs), which keeps the tuner deterministic and
dependency-free.  Each replay replica (see
:meth:`repro.core.cache.MarconiCache.make_replay_cache`) seeds its eviction
index once per alpha from the cloned snapshot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.cache import MarconiCache
    from repro.core.radix_tree import RadixTree


class TunerPhase(enum.Enum):
    """Lifecycle of the tuner: LRU warmup → recording → tuned."""

    WARMUP = "warmup"
    BOOTSTRAP = "bootstrap"
    TUNED = "tuned"


@dataclass(frozen=True)
class AlphaTunerConfig:
    """Knobs for the bootstrap grid search.

    ``bootstrap_multiplier`` follows the paper's "5-15x the number of
    requests seen before the first eviction"; the default sits at the
    midpoint — calibration showed the low end records a window of mostly
    *young* sessions (short contexts) whose replay overstates how much
    FLOP-awareness pays on narrow-length workloads.  The min/max clamps
    keep tiny and enormous workloads sane.
    """

    alpha_grid: tuple[float, ...] = (0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0)
    bootstrap_multiplier: float = 10.0
    min_bootstrap_requests: int = 8
    max_bootstrap_requests: int = 256
    adoption_margin: float = 0.03
    plateau_tolerance: float = 0.02

    def __post_init__(self) -> None:
        if not self.alpha_grid:
            raise ValueError("alpha_grid must be non-empty")
        if any(a < 0 for a in self.alpha_grid):
            raise ValueError("alpha values must be non-negative")
        if self.bootstrap_multiplier <= 0:
            raise ValueError("bootstrap_multiplier must be positive")
        if not 0 < self.min_bootstrap_requests <= self.max_bootstrap_requests:
            raise ValueError("need 0 < min_bootstrap_requests <= max_bootstrap_requests")
        if self.adoption_margin < 0 or self.plateau_tolerance < 0:
            raise ValueError("margins must be non-negative")


@dataclass
class _LoggedRequest:
    now: float
    input_len: int
    full_tokens: np.ndarray


class AlphaTuner:
    """Drives the warmup → bootstrap → tuned state machine for one cache."""

    def __init__(self, config: AlphaTunerConfig) -> None:
        self.config = config
        self.phase = TunerPhase.WARMUP
        self.tuned_alpha: Optional[float] = None
        self.search_results: dict[float, float] = {}
        self._evictions = 0
        self._warmup_requests = 0
        self._bootstrap_target = 0
        self._snapshot: Optional["RadixTree"] = None
        self._log: list[_LoggedRequest] = []

    # ------------------------------------------------------------------
    # Hooks called by the cache
    # ------------------------------------------------------------------
    def note_eviction(self) -> None:
        """Record that the cache evicted an entry."""
        self._evictions += 1

    def after_request(
        self,
        cache: "MarconiCache",
        now: float,
        input_len: int,
        full_tokens: np.ndarray,
    ) -> None:
        """Advance the state machine after a completed request."""
        if self.phase is TunerPhase.TUNED:
            return
        if self.phase is TunerPhase.WARMUP:
            self._warmup_requests += 1
            if self._evictions > 0:
                self._enter_bootstrap(cache)
            return
        # BOOTSTRAP: record this request, then tune once the window fills.
        self._log.append(
            _LoggedRequest(now=now, input_len=input_len, full_tokens=full_tokens)
        )
        if len(self._log) >= self._bootstrap_target:
            self._tune(cache)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _enter_bootstrap(self, cache: "MarconiCache") -> None:
        self._snapshot = cache.snapshot_for_replay()
        raw_target = self.config.bootstrap_multiplier * max(1, self._warmup_requests)
        self._bootstrap_target = int(
            min(
                max(raw_target, self.config.min_bootstrap_requests),
                self.config.max_bootstrap_requests,
            )
        )
        self.phase = TunerPhase.BOOTSTRAP

    def _tune(self, cache: "MarconiCache") -> None:
        assert self._snapshot is not None
        self.search_results = {
            alpha: self._replay_hit_rate(cache, alpha)
            for alpha in self.config.alpha_grid
        }
        self.tuned_alpha = self._select_alpha(self.search_results)
        cache.set_alpha(self.tuned_alpha)
        self.phase = TunerPhase.TUNED
        # The replay log is no longer needed; free the token arrays.
        self._log = []
        self._snapshot = None

    def _select_alpha(self, results: dict[float, float]) -> float:
        """Adopt the hit-rate-maximizing alpha, robustly.

        The bootstrap window is a finite sample, so two guards temper the raw
        argmax: leaving the LRU behaviour (``alpha = 0``) requires beating it
        by ``adoption_margin`` (relative), and among values within
        ``plateau_tolerance`` of the best we adopt the *smallest* alpha —
        the least aggressive configuration that realizes the win.
        """
        best_rate = max(results.values())
        lru_rate = results.get(0.0, 0.0)
        if best_rate <= lru_rate * (1.0 + self.config.adoption_margin):
            return 0.0
        threshold = best_rate * (1.0 - self.config.plateau_tolerance)
        eligible = [a for a, rate in results.items() if rate >= threshold]
        return min(eligible)

    def _replay_hit_rate(self, cache: "MarconiCache", alpha: float) -> float:
        assert self._snapshot is not None
        replica = cache.make_replay_cache(alpha, self._snapshot)
        for entry in self._log:
            with replica.begin(
                entry.full_tokens[: entry.input_len], entry.now
            ) as session:
                session.commit(entry.full_tokens, entry.now)
        return replica.stats.token_hit_rate

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_tuned(self) -> bool:
        return self.phase is TunerPhase.TUNED

    @property
    def bootstrap_progress(self) -> tuple[int, int]:
        """(recorded, target) during bootstrap; (0, 0) otherwise."""
        if self.phase is not TunerPhase.BOOTSTRAP:
            return (0, 0)
        return (len(self._log), self._bootstrap_target)
