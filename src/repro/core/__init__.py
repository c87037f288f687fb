"""Marconi's core: the radix-tree prefix cache with judicious admission and
FLOP-aware eviction.

The public entry point is :class:`~repro.core.cache.MarconiCache`; the
supporting pieces (tree, eviction policies, alpha tuner) are exported for
direct use by tests, baselines, and ablation benchmarks.
"""

from repro.core.interfaces import (
    AdmitResult,
    CacheProtocol,
    LookupResult,
    PrefixCache,
    RequestSession,
    SessionState,
)
from repro.core.eviction_index import EvictionIndex
from repro.core.node import RadixNode
from repro.core.radix_tree import InsertOutcome, MatchResult, RadixTree, TreeObserver
from repro.core.admission import SpeculativeInsertReport, speculative_insert
from repro.core.eviction import (
    EvictionCandidate,
    EvictionPolicy,
    FlopAwareEviction,
    LRUKEviction,
    RandomEviction,
    make_eviction_policy,
)
from repro.core.alpha_tuner import AlphaTuner, AlphaTunerConfig
from repro.core.cache import MarconiCache
from repro.core.persistence import load_cache, load_tree, save_cache
from repro.core.stats import CacheStats

__all__ = [
    "AdmitResult",
    "CacheProtocol",
    "LookupResult",
    "PrefixCache",
    "RequestSession",
    "SessionState",
    "RadixNode",
    "RadixTree",
    "TreeObserver",
    "EvictionIndex",
    "MatchResult",
    "InsertOutcome",
    "SpeculativeInsertReport",
    "speculative_insert",
    "EvictionCandidate",
    "EvictionPolicy",
    "FlopAwareEviction",
    "LRUKEviction",
    "RandomEviction",
    "make_eviction_policy",
    "AlphaTuner",
    "AlphaTunerConfig",
    "MarconiCache",
    "CacheStats",
    "save_cache",
    "load_cache",
    "load_tree",
]
