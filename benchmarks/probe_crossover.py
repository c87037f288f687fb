"""Deep probe vs directory, whole run: ``python -m benchmarks.probe_crossover``.

``PrefixAffinityRouter`` deep-probes every replica tree below
``router._AUTO_PROBE_THRESHOLD`` replicas and reads the prefix directory at
or above it (or whenever it is handed a backend).  The two arms are
decision-identical, so which is faster is a wall-clock question, and a
per-route microbenchmark does not answer it: the directory is paid for per
replica tree *event* (maintenance), the deep probe per routed *request* per
replica.  This tool measures the whole run:

* ``ClusterSimulator`` + ``PrefixAffinityRouter``; the directory arm is ``directory_factory=PrefixDirectory``, the deep arm runs
  with the module constant patched above the fleet size;
* ``hybrid_7b``, ``MarconiCache`` replicas of 16 x 4 000-token states;
* ``lmsys`` and ``swebench`` traces, ``session_rate=4``, seed 5 (the larger
  session count from 8 replicas up, so bigger fleets still see evictions);
* wall seconds of ``ClusterSimulator.run`` only, median of ``--runs``
  (default 5) runs per arm, the arms alternating which goes first.

It prints a Markdown table (``docs/architecture.md`` "The probe rule" is a
paste of it) and the measured crossover per workload: the smallest fleet
from which the directory is no slower at every larger size measured.  Runs
are sub-second, so read a ratio to about +-20 %.  The constant is read from
this table: ``_AUTO_PROBE_THRESHOLD`` is the smallest fleet at which the
ratio is <= 1.0 on both workloads.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path
from typing import Optional, Sequence
from unittest import mock

if __package__ in (None, ""):  # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cluster import ClusterSimulator, PrefixAffinityRouter, PrefixDirectory
from repro.cluster import router as router_module
from repro.core.cache import MarconiCache
from repro.models.memory import node_state_bytes
from repro.models.presets import hybrid_7b
from repro.workloads.registry import generate_trace

FLEETS = (2, 4, 6, 8, 16, 32, 64, 128)
#: workload -> (sessions below 8 replicas, sessions from 8 replicas up)
SESSIONS = {"lmsys": (150, 400), "swebench": (40, 100)}
SESSION_RATE = 4.0
SEED = 5
STATES, STATE_TOKENS = 16, 4000
ARMS = ("directory", "deep")


def _run(model, trace, replicas: int, arm: str) -> tuple[float, float]:
    """``(wall seconds, token hit rate)`` of one run on fresh caches."""
    capacity = STATES * node_state_bytes(model, STATE_TOKENS, True)
    caches = [MarconiCache(model, capacity, alpha=1.0) for _ in range(replicas)]
    factory = PrefixDirectory if arm == "directory" else None
    router = PrefixAffinityRouter(directory_factory=factory)
    simulator = ClusterSimulator(model, caches, router)
    # The constant sits above the fleet, so only the arm handed a backend
    # reads a directory: both arms are named from outside the router.
    with mock.patch.object(router_module, "_AUTO_PROBE_THRESHOLD", replicas + 1):
        start = time.perf_counter()
        result = simulator.run(trace)
        wall = time.perf_counter() - start
    if (result.directory_stats is not None) != (arm == "directory"):
        raise AssertionError(f"{replicas} replicas: the {arm} arm ran the other probe")
    return wall, result.token_hit_rate


def measure(fleets: Sequence[int], runs: int) -> list[dict]:
    """One row per (workload, fleet size): median wall per arm and the ratio."""
    model = hybrid_7b()
    rows = []
    for workload, (few, many) in SESSIONS.items():
        traces = {
            n: generate_trace(workload, n_sessions=n, session_rate=SESSION_RATE, seed=SEED)
            for n in (few, many)
        }
        for replicas in fleets:
            trace = traces[few if replicas < 8 else many]
            walls: dict[str, list[float]] = {arm: [] for arm in ARMS}
            hits = set()
            for i in range(runs):
                for arm in ARMS if i % 2 == 0 else ARMS[::-1]:
                    wall, hit_rate = _run(model, trace, replicas, arm)
                    walls[arm].append(wall)
                    hits.add(hit_rate)
            if len(hits) != 1:
                raise AssertionError(
                    f"{workload} x {replicas}: the probes disagree on hit rate: {hits}"
                )
            directory, deep = (statistics.median(walls[arm]) for arm in ARMS)
            rows.append(
                {
                    "workload": workload,
                    "sessions": len(trace.sessions),
                    "requests": trace.n_requests,
                    "replicas": replicas,
                    "directory_s": directory,
                    "deep_s": deep,
                    "ratio": directory / deep,
                }
            )
    return rows


def crossover(rows: Sequence[dict], workload: str) -> Optional[int]:
    """Smallest fleet from which the directory is no slower than the deep
    probe at every larger measured size (``None``: slower at the largest)."""
    best = None
    for row in sorted(
        (r for r in rows if r["workload"] == workload),
        key=lambda r: r["replicas"],
        reverse=True,
    ):
        if row["ratio"] > 1.0:
            break
        best = row["replicas"]
    return best


def render(rows: Sequence[dict], runs: int) -> str:
    lines = [
        "| workload | sessions (requests) | replicas | directory s | deep s | directory ÷ deep |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for row in rows:
        requests = f"{row['requests']:,}".replace(",", " ")
        lines.append(
            f"| {row['workload']} | {row['sessions']} ({requests}) | {row['replicas']} "
            f"| {row['directory_s']:.3f} | {row['deep_s']:.3f} | {row['ratio']:.2f}× |"
        )
    lines.append("")
    for workload in SESSIONS:
        at = crossover(rows, workload)
        largest = max(r["replicas"] for r in rows if r["workload"] == workload)
        lines.append(
            f"{workload}: "
            + (
                f"directory no slower from {at} replicas up"
                if at is not None
                else f"directory slower at every size up to {largest}"
            )
            + f" (median of {runs} alternating runs per arm)"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per arm (default 5)")
    parser.add_argument(
        "--fleets",
        type=int,
        nargs="+",
        default=list(FLEETS),
        help=f"fleet sizes (default {' '.join(map(str, FLEETS))})",
    )
    parser.add_argument("--out", type=Path, help="also write the table to this file")
    args = parser.parse_args(argv)
    table = render(measure(args.fleets, args.runs), args.runs)
    print(table)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(table + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
