"""Name-based access to the workload generators.

``lmsys``, ``sharegpt``, and ``swebench`` are the paper's three evaluation
workloads; ``docqa``, ``fewshot``, and ``selfconsistency`` instantiate the
remaining purely-input scenarios of the section 4.1 taxonomy.
"""

from __future__ import annotations

from repro.workloads.docqa import DOCQA_SHAPE, generate_docqa_trace
from repro.workloads.fewshot import FEWSHOT_SHAPE, generate_fewshot_trace
from repro.workloads.lmsys import LMSYS_SHAPE, generate_lmsys_trace
from repro.workloads.selfconsistency import (
    generate_selfconsistency_stream,
    generate_selfconsistency_trace,
)
from repro.workloads.sessions import WorkloadParams, stream_trace
from repro.workloads.sharegpt import SHAREGPT_SHAPE, generate_sharegpt_trace
from repro.workloads.swebench import SWEBENCH_SHAPE, generate_swebench_trace
from repro.workloads.trace import Trace, TraceStream

_GENERATORS = {
    "lmsys": generate_lmsys_trace,
    "sharegpt": generate_sharegpt_trace,
    "swebench": generate_swebench_trace,
    "docqa": generate_docqa_trace,
    "fewshot": generate_fewshot_trace,
    "selfconsistency": generate_selfconsistency_trace,
}

# The shape-driven workloads share one lazy generator (stream_trace);
# selfconsistency has its own reorder-buffered stream.
_SHAPES = {
    "lmsys": LMSYS_SHAPE,
    "sharegpt": SHAREGPT_SHAPE,
    "swebench": SWEBENCH_SHAPE,
    "docqa": DOCQA_SHAPE,
    "fewshot": FEWSHOT_SHAPE,
}

WORKLOAD_NAMES: tuple[str, ...] = tuple(sorted(_GENERATORS))


def _resolve_params(params: WorkloadParams | None, kwargs: dict) -> WorkloadParams:
    if params is None:
        return WorkloadParams(**kwargs)
    if kwargs:
        raise TypeError("pass either params or keyword overrides, not both")
    return params


def generate_trace(workload: str, params: WorkloadParams | None = None, **kwargs) -> Trace:
    """Generate a trace by workload name (see :data:`WORKLOAD_NAMES`)."""
    try:
        generator = _GENERATORS[workload]
    except KeyError:
        raise KeyError(
            f"unknown workload {workload!r}; known: {WORKLOAD_NAMES}"
        ) from None
    return generator(params, **kwargs)


def generate_trace_stream(
    workload: str, params: WorkloadParams | None = None, **kwargs
) -> TraceStream:
    """Lazily generate a trace by workload name.

    Every registered workload has a streaming variant: sessions are
    produced on demand in arrival order, so arbitrarily long traces replay
    through the engines with memory bounded by the number of concurrently
    active sessions.  For the shape-driven workloads the stream's
    ``materialize()`` is byte-identical to :func:`generate_trace`;
    ``selfconsistency`` yields the same sessions sorted by arrival time
    (its materialized builder keeps per-query generation order).
    """
    if workload == "selfconsistency":
        return generate_selfconsistency_stream(params, **kwargs)
    try:
        shape = _SHAPES[workload]
    except KeyError:
        raise KeyError(
            f"unknown workload {workload!r}; known: {WORKLOAD_NAMES}"
        ) from None
    return stream_trace(shape, _resolve_params(params, kwargs))


__all__ = [
    "WORKLOAD_NAMES",
    "generate_trace",
    "generate_trace_stream",
]
