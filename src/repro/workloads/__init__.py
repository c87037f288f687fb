"""Synthetic workload generation: multi-turn chat and agentic request traces.

The paper evaluates on tokenized LMSys-Chat-1M, ShareGPT, and SWE-Bench
(SWE-Agent) traces.  Those traces are multi-gigabyte downloads of real user
data; the caching policies, however, only observe three things: token-ID
overlap structure (which prefixes are shared, within and across sessions),
sequence length scales, and arrival timing.  The generators here reproduce
exactly those properties per dataset — see each module's docstring for the
distributional targets taken from the paper's Fig. 6.
"""

from repro.workloads.arrivals import PoissonProcess, exponential_think_times
from repro.workloads.distributions import (
    GeometricCount,
    LogNormalLength,
    sample_zipf,
    zipf_weights,
)
from repro.workloads.docqa import DOCQA_SHAPE, generate_docqa_trace
from repro.workloads.fewshot import FEWSHOT_SHAPE, generate_fewshot_trace
from repro.workloads.lmsys import LMSYS_SHAPE, generate_lmsys_trace
from repro.workloads.mixture import component_of, mix_streams, mix_traces
from repro.workloads.registry import (
    WORKLOAD_NAMES,
    generate_trace,
    generate_trace_stream,
)
from repro.workloads.selfconsistency import (
    SELFCONSISTENCY_SHAPE,
    SelfConsistencyShape,
    generate_selfconsistency_stream,
    generate_selfconsistency_trace,
)
from repro.workloads.sessions import (
    SessionShape,
    WorkloadParams,
    build_trace,
    stream_trace,
)
from repro.workloads.sharegpt import SHAREGPT_SHAPE, generate_sharegpt_trace
from repro.workloads.swebench import SWEBENCH_SHAPE, generate_swebench_trace
from repro.workloads.trace import Trace, TraceRound, TraceSession, TraceStream
from repro.workloads.vocab import SharedSegmentPool, fresh_tokens

__all__ = [
    "PoissonProcess",
    "exponential_think_times",
    "LogNormalLength",
    "GeometricCount",
    "zipf_weights",
    "sample_zipf",
    "SharedSegmentPool",
    "fresh_tokens",
    "Trace",
    "TraceRound",
    "TraceSession",
    "TraceStream",
    "SessionShape",
    "SelfConsistencyShape",
    "WorkloadParams",
    "build_trace",
    "stream_trace",
    "generate_lmsys_trace",
    "generate_sharegpt_trace",
    "generate_swebench_trace",
    "generate_docqa_trace",
    "generate_fewshot_trace",
    "generate_selfconsistency_trace",
    "generate_selfconsistency_stream",
    "LMSYS_SHAPE",
    "SHAREGPT_SHAPE",
    "SWEBENCH_SHAPE",
    "DOCQA_SHAPE",
    "FEWSHOT_SHAPE",
    "SELFCONSISTENCY_SHAPE",
    "generate_trace",
    "generate_trace_stream",
    "WORKLOAD_NAMES",
    "mix_traces",
    "mix_streams",
    "component_of",
]
