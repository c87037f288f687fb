"""Microbenchmark: split-point steering vs the all-or-nothing endpoints.

Split-point steering's acceptance bar is a *floor*, not a speedup claim:
because the planner only picks an interior split when its cost estimate
strictly beats both endpoints (full recompute, full load), the steered
round's TTFT under ``DirectoryRouter(split=True)`` must be <= the best
endpoint arm at **every** swept inter-replica bandwidth.  This bench runs
:func:`repro.experiments.steering_sweep.steering_bandwidth_sweep` across
regimes from disk-ish 0.3 GB/s to NVLink-ish 50 GB/s and asserts exactly
that, plus the regime shape the cost model predicts: at low bandwidth the
split arm overlaps (transfer is the bottleneck — recompute the tail while
the head ships), at high bandwidth it degenerates to the PR-4 full-load
decision byte-identically.

Results are written to
``benchmarks/out/BENCH_steering.json`` (git-ignored; CI uploads it).
Deliberately fast (a handful of tiny
two-replica sims); stays in the default test lane.
"""

from __future__ import annotations


from _bench_io import OUT_DIR, write_bench
from repro.experiments.steering_sweep import (
    ARMS,
    DEFAULT_BANDWIDTHS,
    steering_bandwidth_sweep,
)

BENCH_PATH = OUT_DIR / "BENCH_steering.json"

#: Absolute slack on the TTFT floor comparison (float noise only — the
#: planner never *chooses* a strictly worse split, so no real tolerance
#: is needed).
FLOOR_EPS_S = 1e-9


def test_split_ttft_floor_across_bandwidth_regimes():
    payload = steering_bandwidth_sweep()
    ttfts = payload["ttft_seconds"]
    bandwidths = payload["bandwidths_bytes_per_s"]
    assert list(bandwidths) == [float(b) for b in DEFAULT_BANDWIDTHS]
    assert set(ttfts) == set(ARMS)

    failures = []
    for i, bandwidth in enumerate(bandwidths):
        split = ttfts["split"][i]
        floor = min(ttfts["recompute"][i], ttfts["full"][i])
        if split > floor + FLOOR_EPS_S:
            failures.append(
                f"bw={bandwidth:.3g} B/s: split TTFT {split:.6f}s above the "
                f"endpoint floor {floor:.6f}s"
            )
    assert not failures, "; ".join(failures)
    assert all(payload["floor_holds"]), payload["floor_holds"]

    # Regime shape: somewhere in the sweep the split arm must *strictly*
    # beat both endpoints with overlap savings (otherwise the subsystem
    # is dead weight), and at the highest bandwidth it must degenerate to
    # the all-or-nothing decision (identical TTFT to the 'full' arm).
    strict_wins = [
        i
        for i in range(len(bandwidths))
        if ttfts["split"][i]
        < min(ttfts["recompute"][i], ttfts["full"][i]) - FLOOR_EPS_S
    ]
    assert strict_wins, "split never beat the endpoints in any swept regime"
    assert any(
        payload["split_summaries"][i]["splits_overlapped"] > 0 for i in strict_wins
    )
    assert ttfts["split"][-1] == ttfts["full"][-1], (
        "at the highest bandwidth the planner must degenerate to full load"
    )

    write_bench(
        BENCH_PATH,
        benchmark="steering",
        payload={
            "bandwidth_sweep": payload,
            "floor": {
                "eps_seconds": FLOOR_EPS_S,
                "holds_at_every_bandwidth": True,
                "strict_win_bandwidths": [bandwidths[i] for i in strict_wins],
            },
        },
    )
