"""Name-based access to the workload generators: the one door.

``lmsys``, ``sharegpt``, and ``swebench`` are the paper's three evaluation
workloads; ``docqa``, ``fewshot``, and ``selfconsistency`` instantiate the
remaining purely-input scenarios of the section 4.1 taxonomy.  Each name
maps to one recipe, ``WorkloadParams -> TraceStream``; a materialized
:class:`Trace` is that stream collapsed, so the two are byte-identical by
construction.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.workloads.docqa import DOCQA_SHAPE
from repro.workloads.fewshot import FEWSHOT_SHAPE
from repro.workloads.lmsys import LMSYS_SHAPE
from repro.workloads.selfconsistency import (
    SELFCONSISTENCY_SHAPE,
    stream_selfconsistency_trace,
)
from repro.workloads.sessions import WorkloadParams, stream_trace
from repro.workloads.sharegpt import SHAREGPT_SHAPE
from repro.workloads.swebench import SWEBENCH_SHAPE
from repro.workloads.trace import Trace, TraceStream

_RECIPES: dict[str, Callable[[WorkloadParams], TraceStream]] = {
    **{
        shape.name: partial(stream_trace, shape)
        for shape in (LMSYS_SHAPE, SHAREGPT_SHAPE, SWEBENCH_SHAPE, DOCQA_SHAPE, FEWSHOT_SHAPE)
    },
    SELFCONSISTENCY_SHAPE.name: partial(stream_selfconsistency_trace, SELFCONSISTENCY_SHAPE),
}

WORKLOAD_NAMES: tuple[str, ...] = tuple(sorted(_RECIPES))


def _resolve_params(params: WorkloadParams | None, kwargs: dict) -> WorkloadParams:
    if params is None:
        return WorkloadParams(**kwargs)
    if kwargs:
        raise TypeError("pass either params or keyword overrides, not both")
    return params


def generate_trace_stream(
    workload: str, params: WorkloadParams | None = None, **kwargs
) -> TraceStream:
    """Lazily generate a trace by workload name (see :data:`WORKLOAD_NAMES`).

    Pass either ``params`` or :class:`WorkloadParams` keyword overrides.
    Sessions are produced on demand in arrival order, so arbitrarily long
    traces replay through the engines with memory bounded by the number of
    concurrently active sessions.
    """
    try:
        recipe = _RECIPES[workload]
    except KeyError:
        raise KeyError(
            f"unknown workload {workload!r}; known: {WORKLOAD_NAMES}"
        ) from None
    return recipe(_resolve_params(params, kwargs))


def generate_trace(workload: str, params: WorkloadParams | None = None, **kwargs) -> Trace:
    """:func:`generate_trace_stream`, materialized."""
    return generate_trace_stream(workload, params, **kwargs).materialize()


__all__ = [
    "WORKLOAD_NAMES",
    "generate_trace",
    "generate_trace_stream",
]
