"""Reproduction of "Marconi: Prefix Caching for the Era of Hybrid LLMs"
(Pan et al., MLSys 2025).

Public surface:

* :class:`repro.core.MarconiCache` — the paper's prefix cache (radix tree,
  judicious admission, FLOP-aware eviction, bootstrap alpha tuning).
* :mod:`repro.baselines` — vanilla / vLLM+ / SGLang+ / static-alpha oracle.
* :mod:`repro.models` — hybrid-model FLOP and state-size cost models.
* :mod:`repro.workloads` — synthetic LMSys / ShareGPT / SWEBench traces.
* :mod:`repro.engine` — discrete-event serving simulator with TTFT model.
* :mod:`repro.nn` — an executable NumPy hybrid LLM for exact-reuse checks.
* :mod:`repro.tiering` — two-tier (demote/promote) hierarchical caching.
* :mod:`repro.cluster` — multi-replica cache steering: a router-side
  prefix directory, cross-replica state transfers, elastic/failure scenarios.
* :mod:`repro.analysis` — clairvoyant replay bound and reuse taxonomy.
* :mod:`repro.experiments` — one harness per paper figure/table.
"""

from repro.core import MarconiCache, RequestSession, SessionState
from repro.analysis import clairvoyant_replay, classify_trace
from repro.baselines import SGLangPlusCache, VanillaCache, VLLMPlusCache, make_cache
from repro.cluster import (
    DirectoryRouter,
    PrefixDirectory,
    ScenarioEvent,
    make_router,
    simulate_cluster,
)
from repro.engine import (
    IterationConfig,
    KernelConfig,
    LatencyModel,
    SimulationKernel,
    simulate_trace,
    simulate_trace_iteration,
)
from repro.models import ModelConfig, hybrid_7b, mamba_7b, transformer_7b
from repro.tiering import TieredMarconiCache
from repro.workloads import WorkloadParams, generate_trace

__version__ = "1.0.0"

__all__ = [
    "MarconiCache",
    "RequestSession",
    "SessionState",
    "TieredMarconiCache",
    "VanillaCache",
    "VLLMPlusCache",
    "SGLangPlusCache",
    "make_cache",
    "make_router",
    "simulate_cluster",
    "DirectoryRouter",
    "PrefixDirectory",
    "ScenarioEvent",
    "clairvoyant_replay",
    "classify_trace",
    "IterationConfig",
    "KernelConfig",
    "LatencyModel",
    "SimulationKernel",
    "simulate_trace",
    "simulate_trace_iteration",
    "ModelConfig",
    "hybrid_7b",
    "mamba_7b",
    "transformer_7b",
    "WorkloadParams",
    "generate_trace",
    "__version__",
]
