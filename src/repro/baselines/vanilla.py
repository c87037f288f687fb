"""Vanilla inference: every request prefills from scratch (no prefix cache)."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.interfaces import (
    AdmitResult,
    LookupResult,
    PrefixCache,
    RequestSession,
    as_token_array,
)
from repro.core.stats import CacheStats
from repro.models.config import ModelConfig


class VanillaCache(PrefixCache):
    """The no-caching baseline.

    Sessions always miss and admissions are dropped; the class exists so
    the serving engine can treat "no prefix caching" uniformly with real
    caches.
    """

    def __init__(self, model: ModelConfig, capacity_bytes: int = 0) -> None:
        self.model = model
        self._stats = CacheStats()

    def _begin_session(self, tokens: np.ndarray, now: float) -> RequestSession:
        tokens = as_token_array(tokens)
        if len(tokens) == 0:
            raise ValueError("cannot look up an empty token sequence")
        self._stats.record_lookup(0, len(tokens))
        return RequestSession(
            self, LookupResult(hit_tokens=0, input_tokens=len(tokens))
        )

    def _commit_session(
        self,
        session: RequestSession,
        tokens: np.ndarray,
        now: float,
        state_payload: Any = None,
    ) -> AdmitResult:
        as_token_array(tokens)
        self._stats.record_admission(0, rejected=True)
        return AdmitResult(rejected=True)

    @property
    def capacity_bytes(self) -> int:
        return 0

    @property
    def used_bytes(self) -> int:
        return 0

    @property
    def stats(self) -> CacheStats:
        return self._stats

    def reset(self) -> None:
        self.detach_open_sessions()
        self._stats = CacheStats()
