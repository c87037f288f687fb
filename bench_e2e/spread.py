"""Run-to-run spread: ``python3 bench_e2e/spread.py [--first-seed N]``.

Runs every workload ten times, with a different seed each run as the
driver does, and prints, per workload and end-to-end metric, the median
and the inter-quartile distance as a share of it, next to the metric's
bound.  This is how the bounds in ``BENCHMARK.json`` were chosen: a spread
above a third of its bound is flagged, one above the bound fails (the
driver exempts ``setup_s`` from that, so it is only flagged here).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bench_e2e.harness import load_spec, quartiles, run_in_process_of_its_own, spread


RUNS = 10


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    wide = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [
            run_in_process_of_its_own(workload, seed, spec["run_seconds"])
            for seed in range(args.first_seed, args.first_seed + RUNS)
        ]
        failed = sum(run["failed"] for run in runs)
        print(f"== {workload}: {RUNS} seeds, {failed} failed rounds or checks")
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            share = spread(values)
            flag = "" if share <= metric["bound"] / 3 else "  > bound/3"
            if share > metric["bound"]:
                flag = "  > BOUND"
                wide += metric["name"] != "setup_s"
            print(
                f"  {metric['name']:<18} median {quartiles(values)[1]:>12.6g} "
                f"{metric['unit']:<5} spread {share:7.4f}  bound {metric['bound']:.2f}{flag}"
            )
        sys.stdout.flush()
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
