"""Throughput views over one simulation's request records."""

from __future__ import annotations

from repro.engine.results import EngineResult


def makespan_seconds(result: EngineResult) -> float:
    """Wall-clock span from first arrival to last prefill completion."""
    if not result.records:
        return 0.0
    start = min(r.arrival_time for r in result.records)
    end = max(r.service_start + r.prefill_seconds for r in result.records)
    return max(0.0, end - start)


def prefill_throughput_tokens_per_s(result: EngineResult) -> float:
    """Input tokens *processed* per second of makespan.

    Cache hits count: a token served from cache contributes to throughput
    precisely because its prefill was skipped — this is the tokens/s number
    the paper's section 2.2 says prefix caching raises.
    """
    span = makespan_seconds(result)
    if span == 0.0:
        return 0.0
    return sum(r.input_len for r in result.records) / span
