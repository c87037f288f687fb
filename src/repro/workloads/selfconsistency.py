"""Self-consistency sampling workload (Wang et al. 2022; paper section 4.1).

The paper lists "self-consistency (Wang et al., 2022)" among the *purely
input* reuse scenarios: the same chain-of-thought prompt is sampled ``k``
times and the answers are majority-voted, so ``k`` requests with
*byte-identical inputs* arrive nearly simultaneously.

This workload is the sharpest probe of the "all or nothing" property: for
*byte-identical* inputs the branch point sits exactly at the input
boundary, and a recurrent checkpoint can only serve a strictly longer
input (the final input token must always be prefilled to produce the first
decode step's logits) — so Marconi's node-granular checkpoints cannot
serve the repeats, while vLLM+'s block-grained states reuse all but the
final partial block, at its usual per-sample memory cost.  The reuse
Marconi *does* capture here is the shared chain-of-thought preamble across
queries (the template pool), making this the honest stress test of where
judicious admission trades hit rate for memory.

Because all ``k`` samples share one query, ``WorkloadParams.n_sessions``
counts *queries*; each query emits one single-round session per sample.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.workloads.arrivals import PoissonProcess
from repro.workloads.distributions import GeometricCount, LogNormalLength
from repro.workloads.sessions import WorkloadParams, template_pool
from repro.workloads.trace import TraceRound, TraceSession, TraceStream
from repro.workloads.vocab import fresh_tokens


@dataclass(frozen=True)
class SelfConsistencyShape:
    """Distributional knobs of the self-consistency workload."""

    name: str = "selfconsistency"
    samples: GeometricCount = GeometricCount(mean=8.0, minimum=2, maximum=40)
    question: LogNormalLength = LogNormalLength(median=180, sigma=0.7, minimum=20, maximum=2000)
    output: LogNormalLength = LogNormalLength(median=350, sigma=0.8, minimum=32, maximum=3000)
    n_templates: int = 12
    template_length: LogNormalLength = LogNormalLength(
        median=600, sigma=0.5, minimum=100, maximum=3000
    )
    template_zipf: float = 1.2
    sample_spread_s: float = 0.5

    def __post_init__(self) -> None:
        if self.sample_spread_s < 0:
            raise ValueError(
                f"sample_spread_s must be non-negative, got {self.sample_spread_s}"
            )


SELFCONSISTENCY_SHAPE = SelfConsistencyShape()


def _selfconsistency_session_generator(
    shape: SelfConsistencyShape, params: WorkloadParams
) -> Iterator[TraceSession]:
    """Yield self-consistency sessions in arrival order, lazily.

    Generation order is per-query, but sample dispatch jitter (bounded by
    ``sample_spread_s``) lets a query's later samples land after the next
    query's arrival.  A small reorder heap fixes that: a buffered session
    at time ``t`` is safe to emit once a query arrives at ``base >= t``,
    because every future session arrives at or after that base.  The
    buffer therefore holds only the sessions inside one spread window.
    """
    rng = np.random.default_rng(params.seed)
    pool = template_pool(shape, params)
    query_arrivals = PoissonProcess(params.session_rate).arrival_times(
        rng, params.n_sessions
    )
    buffer: list[tuple[float, int, TraceSession]] = []
    session_id = 0
    for query_index in range(params.n_sessions):
        base_arrival = float(query_arrivals[query_index])
        while buffer and buffer[0][0] <= base_arrival:
            yield heapq.heappop(buffer)[2]
        k = shape.samples.sample(rng)
        prompt = np.concatenate(
            [
                pool.sample(rng),
                fresh_tokens(rng, shape.question.sample(rng), params.vocab_size),
            ]
        )
        for sample_index in range(k):
            # The first sample fires at the query's arrival; the rest land
            # within the dispatch spread (parallel sampling with queueing
            # jitter, not a think-time loop).
            offset = 0.0 if sample_index == 0 else float(
                rng.uniform(0.0, shape.sample_spread_s)
            )
            output = fresh_tokens(rng, shape.output.sample(rng), params.vocab_size)
            session = TraceSession(
                session_id=session_id,
                arrival_time=base_arrival + offset,
                rounds=[TraceRound(new_input_tokens=prompt, output_tokens=output)],
                think_times=[0.0],
            )
            heapq.heappush(buffer, (session.arrival_time, session_id, session))
            session_id += 1
    while buffer:
        yield heapq.heappop(buffer)[2]


def stream_selfconsistency_trace(
    shape: SelfConsistencyShape, params: WorkloadParams
) -> TraceStream:
    """Lazily generate a self-consistency trace, sorted by arrival time."""
    return TraceStream(
        name=shape.name,
        seed=params.seed,
        factory=lambda: _selfconsistency_session_generator(shape, params),
        metadata={
            "n_queries": params.n_sessions,
            "session_rate": params.session_rate,
            "mean_think_s": params.mean_think_s,
            "vocab_size": params.vocab_size,
        },
    )
