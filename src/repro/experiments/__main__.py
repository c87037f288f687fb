"""CLI: regenerate the paper's figures/tables and inspect workloads.

Examples::

    python -m repro.experiments --list
    python -m repro.experiments --figure fig7
    python -m repro.experiments --figure fig11 --scale smoke
    python -m repro.experiments --all --scale bench
    python -m repro.experiments --taxonomy swebench --sessions 40
    python -m repro.experiments --gen-trace lmsys --out lmsys.jsonl --sessions 80
    python -m repro.experiments --gen-trace lmsys --stream --sessions 100000
    python -m repro.experiments --sweep sharegpt --workers 4 --scale smoke
    python -m repro.experiments --headroom sharegpt --scale smoke
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.config import DATASET_CONFIGS
from repro.experiments.registry import FIGURES, run_figure


def _run_taxonomy(workload: str, sessions: int, seed: int) -> None:
    from repro.analysis import classify_trace
    from repro.workloads import generate_trace

    trace = generate_trace(workload, n_sessions=sessions, seed=seed)
    report = classify_trace(trace)
    print(f"workload={workload} sessions={sessions} requests={trace.n_requests}")
    print(report.summary_table())
    print(f"reuse opportunity ceiling: {100 * report.reusable_token_share:.1f}%")
    print(f"speculative-insertion splits: {report.branch_splits}")


def _gen_trace(
    workload: str,
    out: str,
    sessions: int,
    seed: int,
    arrival_process: str,
    stream: bool,
) -> None:
    from repro.workloads import WorkloadParams, generate_trace, generate_trace_stream

    params = WorkloadParams(
        n_sessions=sessions, seed=seed, arrival_process=arrival_process
    )
    if stream:
        # Constant-memory path: sessions are generated and written one at
        # a time, so session counts far beyond RAM are fine.
        written = generate_trace_stream(workload, params).to_jsonl(out)
        print(f"streamed {written} sessions to {out}")
        return
    trace = generate_trace(workload, params)
    trace.to_jsonl(out)
    print(
        f"wrote {trace.n_requests} requests "
        f"({trace.total_input_tokens} input tokens) to {out}"
    )


def _run_sweep(dataset: str, scale: str, workers: int, out: str | None) -> None:
    from repro.experiments.config import DEFAULT_POLICIES
    from repro.experiments.sweeps import standard_sweep

    started = time.perf_counter()
    points = standard_sweep(dataset, scale, n_workers=workers)
    elapsed = time.perf_counter() - started
    header = f"{'point':<34}" + "".join(f"{p:>10}" for p in DEFAULT_POLICIES)
    print(header)
    for point in points:
        row = f"{point.describe():<34}" + "".join(
            f"{100 * point.hit_rate(policy):>9.1f}%" for policy in DEFAULT_POLICIES
        )
        print(row)
    print(f"[{len(points)} points in {elapsed:.1f}s with {workers} worker(s)]")
    if out:
        import json

        from repro.metrics.export import summary_dict

        payload = [
            {
                "dataset": point.dataset,
                "cache_gb": point.cache_gb,
                "mean_think_s": point.mean_think_s,
                "policies": {
                    policy: summary_dict(result)
                    for policy, result in point.results.items()
                },
            }
            for point in points
        ]
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote sweep summaries to {out}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="marconi-repro",
        description="Reproduce figures/tables from 'Marconi: Prefix Caching "
        "for the Era of Hybrid LLMs' (MLSys 2025).",
    )
    parser.add_argument("--figure", action="append", default=None,
                        help="figure id (repeatable), e.g. fig7, fig12b, table1")
    parser.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument("--scale", default="bench",
                        choices=("smoke", "bench", "full"),
                        help="experiment scale (default: bench)")
    parser.add_argument("--list", action="store_true", help="list figure ids")
    parser.add_argument("--taxonomy", metavar="WORKLOAD", default=None,
                        help="print the reuse-taxonomy report of a workload")
    parser.add_argument("--gen-trace", metavar="WORKLOAD", default=None,
                        help="generate a workload trace and write it as JSONL")
    parser.add_argument("--stream", action="store_true",
                        help="with --gen-trace: stream sessions to disk "
                        "(constant memory, any session count)")
    parser.add_argument("--arrival", default="poisson",
                        choices=("poisson", "bursty", "diurnal", "flashcrowd"),
                        help="arrival process for --gen-trace (default: poisson)")
    parser.add_argument("--sweep", metavar="DATASET", default=None,
                        help="run the standard cache x think-time sweep of a "
                        "dataset (lmsys, sharegpt, swebench)")
    parser.add_argument("--headroom", metavar="DATASET", default=None,
                        choices=sorted(DATASET_CONFIGS),
                        help="print LRU, tuned Marconi, the best static alpha "
                        "and the clairvoyant bound over a dataset's cache grid "
                        "(lmsys, sharegpt, swebench)")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size for --sweep (default: 1, serial)")
    parser.add_argument("--out", default=None,
                        help="output path for --gen-trace (default: trace.jsonl) "
                        "or --sweep summaries (default: not written)")
    parser.add_argument("--sessions", type=int, default=50,
                        help="session count for --taxonomy/--gen-trace (default: 50)")
    parser.add_argument("--seed", type=int, default=0,
                        help="trace seed for --taxonomy/--gen-trace (default: 0)")
    args = parser.parse_args(argv)

    if args.list:
        for figure_id in sorted(FIGURES):
            print(figure_id)
        return 0
    if args.taxonomy:
        _run_taxonomy(args.taxonomy, args.sessions, args.seed)
        return 0
    if args.gen_trace:
        _gen_trace(
            args.gen_trace,
            args.out or "trace.jsonl",
            args.sessions,
            args.seed,
            args.arrival,
            args.stream,
        )
        return 0
    if args.sweep:
        _run_sweep(args.sweep, args.scale, args.workers, args.out)
        return 0
    if args.headroom:
        from repro.experiments.extensions import run_headroom

        started = time.perf_counter()
        print(run_headroom(args.headroom, args.scale).render())
        elapsed = time.perf_counter() - started
        print(f"[headroom done in {elapsed:.1f}s at scale={args.scale}]")
        return 0

    targets = sorted(FIGURES) if args.all else (args.figure or [])
    if not targets:
        parser.error(
            "pass --figure <id>, --all, --list, --taxonomy, --gen-trace, --sweep, "
            "or --headroom"
        )
    for figure_id in targets:
        started = time.perf_counter()
        result = run_figure(figure_id, args.scale)
        elapsed = time.perf_counter() - started
        print(result.render())
        print(f"[{figure_id} done in {elapsed:.1f}s at scale={args.scale}]")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
