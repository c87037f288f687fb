"""Time-resolved cache behaviour: windowed hit rates.

Aggregate token hit rate hides the dynamics that matter operationally:
how long the cache takes to warm up after a (re)start, when the alpha
tuner's adoption kicks in, and whether a policy's advantage is steady or
episodic.  :func:`windowed_hit_rate` slices a simulation's request records into
rolling windows over *service* order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.results import RequestRecord


@dataclass(frozen=True)
class WindowPoint:
    """Token hit rate of one rolling window of requests."""

    end_time: float
    requests: int
    token_hit_rate: float


def windowed_hit_rate(
    records: list[RequestRecord], window: int
) -> list[WindowPoint]:
    """Token hit rate over consecutive windows of ``window`` requests.

    Records are processed in service-start order; the final, possibly
    partial window is included (its ``requests`` field says how full it
    is).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    ordered = sorted(records, key=lambda r: r.service_start)
    points: list[WindowPoint] = []
    for start in range(0, len(ordered), window):
        chunk = ordered[start : start + window]
        inputs = sum(r.input_len for r in chunk)
        hits = sum(r.hit_tokens for r in chunk)
        points.append(
            WindowPoint(
                end_time=chunk[-1].service_start,
                requests=len(chunk),
                token_hit_rate=hits / inputs if inputs else 0.0,
            )
        )
    return points
