"""Synthetic workload generation: multi-turn chat and agentic request traces.

The paper evaluates on tokenized LMSys-Chat-1M, ShareGPT, and SWE-Bench
(SWE-Agent) traces.  Those traces are multi-gigabyte downloads of real user
data; the caching policies, however, only observe three things: token-ID
overlap structure (which prefixes are shared, within and across sessions),
sequence length scales, and arrival timing.  The generators here reproduce
exactly those properties per dataset — see each module's docstring for the
distributional targets taken from the paper's Fig. 6.  Every workload is
reached by name through :func:`generate_trace_stream` (a lazy
:class:`TraceStream`) or :func:`generate_trace` (that stream, materialized).
"""

from repro.workloads.arrivals import PoissonProcess, exponential_think_times
from repro.workloads.distributions import GeometricCount, LogNormalLength, zipf_weights
from repro.workloads.docqa import DOCQA_SHAPE
from repro.workloads.fewshot import FEWSHOT_SHAPE
from repro.workloads.lmsys import LMSYS_SHAPE
from repro.workloads.mixture import component_of, mix_streams
from repro.workloads.registry import (
    WORKLOAD_NAMES,
    generate_trace,
    generate_trace_stream,
)
from repro.workloads.selfconsistency import SELFCONSISTENCY_SHAPE, SelfConsistencyShape
from repro.workloads.sessions import SessionShape, WorkloadParams, stream_trace
from repro.workloads.sharegpt import SHAREGPT_SHAPE
from repro.workloads.swebench import SWEBENCH_SHAPE
from repro.workloads.trace import Trace, TraceRound, TraceSession, TraceStream
from repro.workloads.vocab import SharedSegmentPool, fresh_tokens

__all__ = [
    "PoissonProcess",
    "exponential_think_times",
    "LogNormalLength",
    "GeometricCount",
    "zipf_weights",
    "SharedSegmentPool",
    "fresh_tokens",
    "Trace",
    "TraceRound",
    "TraceSession",
    "TraceStream",
    "SessionShape",
    "SelfConsistencyShape",
    "WorkloadParams",
    "stream_trace",
    "LMSYS_SHAPE",
    "SHAREGPT_SHAPE",
    "SWEBENCH_SHAPE",
    "DOCQA_SHAPE",
    "FEWSHOT_SHAPE",
    "SELFCONSISTENCY_SHAPE",
    "generate_trace",
    "generate_trace_stream",
    "WORKLOAD_NAMES",
    "mix_streams",
    "component_of",
]
