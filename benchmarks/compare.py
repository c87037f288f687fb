"""Paired end-to-end comparison of two revisions: ``python -m benchmarks.compare``.

::

    python -m benchmarks.compare HEAD~1 HEAD --workload cache_contended --pairs 10
    python -m benchmarks.compare HEAD .        # a directory is used as it is

Each revision is exported (``git archive``) into a temporary directory and
runs *its own* ``bench_e2e/run.py`` there, untraced, one process per run.
Pair ``i`` uses seed ``--first-seed + i`` on both sides and alternates which
side goes first.  Per workload and end-to-end metric the table gives both
medians with their quartiles, in how many pairs B was better, and a verdict
by ROADMAP's rule for perf items: a gain needs B ahead in at least nine tenths
of the pairs *and* a median gap wider than A's own inter-quartile distance; a
regression is a median worse than A's by more than the bound
``BENCHMARK.json`` fixes.  The three simulated metrics must
be exactly equal pair by pair (their rows give the verdict and the count of
equal pairs), and failed operations are summed per side.  The exit status is
1 on a regression or a failed operation, else 2 if a simulated metric moved
(a decisions change reads its verdict there), else 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path
from typing import Sequence

if __package__ in (None, ""):  # imported by path (pytest's rootdir-less mode)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

# The arithmetic and the metric list of the tree this tool runs from; what
# is measured is each side's own bench_e2e/run.py.
from bench_e2e.harness import quartiles
from bench_e2e.repeat import SIMULATED


def judge(
    a: Sequence[float], b: Sequence[float], *, better: str, bound: float
) -> dict:
    """Compare paired runs of one metric; ``a`` is the parent, ``b`` the change.

    ``verdict`` is ``"gain"`` (B ahead in >= 9/10 of the pairs, ties counting
    for neither, and the medians apart by more than A's IQR), ``"regression"``
    (B's median worse than A's by more than ``bound`` of it), ``"unresolved"``
    (neither, and A's own IQR is wider than the bound, so "unchanged" cannot
    be told) or ``"no change"``.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    gap = sign * (b_median - a_median)  # > 0: B is better
    iqr = a_q3 - a_q1
    if wins >= 0.9 * len(a) and gap > iqr:
        verdict = "gain"
    elif -gap > bound * abs(a_median):
        verdict = "regression"
    elif iqr > bound * abs(a_median):
        verdict = "unresolved"
    else:
        verdict = "no change"
    return {
        "a": (a_q1, a_median, a_q3),
        "b": (b_q1, b_median, b_q3),
        "wins": wins,
        "gap_beyond_iqr": gap > iqr,
        "verdict": verdict,
    }


def row_verdict(name: str, a: Sequence[float], b: Sequence[float], row: dict) -> str:
    """What one metric's row prints: ``judge``'s verdict and, for a simulated
    metric, in how many pairs the two sides were equal."""
    if name not in SIMULATED:
        return row["verdict"]
    equal = sum(x == y for x, y in zip(a, b))
    return f"{row['verdict']}, equal in {equal}/{len(a)} pairs"


def checkout(revision: str, stack: ExitStack) -> Path:
    """``revision`` as a directory: itself if it is one, else an export of it."""
    if Path(revision).is_dir():
        return Path(revision).resolve()
    root = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="compare-")))
    with subprocess.Popen(["git", "archive", revision], stdout=subprocess.PIPE) as archive:
        subprocess.run(["tar", "-x", "-C", str(root)], stdin=archive.stdout, check=True)
    if archive.returncode:
        raise RuntimeError(f"git archive {revision} failed")
    return root


def run_once(root: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """One untraced run of ``root``'s own benchmark; its final JSON line."""
    command = [sys.executable, "bench_e2e/run.py", "--workload", workload]
    command += ["--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if not done.stdout.strip():
        raise RuntimeError(f"{' '.join(command)} in {root} printed nothing:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a", help="parent: a git revision or a directory")
    parser.add_argument("rev_b", help="change: a git revision or a directory")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=21)
    parser.add_argument("--seconds", type=float, help="default: each side's own")
    args = parser.parse_args(argv)

    failing = moved = False
    with ExitStack() as stack:
        sides = [checkout(args.rev_a, stack), checkout(args.rev_b, stack)]
        spec = json.loads((sides[0] / "BENCHMARK.json").read_text())
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        for workload in workloads:
            runs: tuple[list[dict], list[dict]] = ([], [])
            for pair in range(args.pairs):
                for side in ((0, 1), (1, 0))[pair % 2]:
                    result = run_once(
                        sides[side], workload, args.first_seed + pair, args.seconds
                    )
                    runs[side].append(result)
            print(f"== {workload}: {args.pairs} pairs, seeds {args.first_seed}.."
                  f"{args.first_seed + args.pairs - 1}; A={args.rev_a} B={args.rev_b}")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                a, b = ([r["metrics"][name]["value"] for r in side] for side in runs)
                row = judge(a, b, better=metric["better"], bound=metric["bound"])
                verdict = row_verdict(name, a, b, row)
                moved |= name in SIMULATED and a != b
                failing |= row["verdict"] == "regression"
                print(
                    f"  {name:<16} A {row['a'][1]:>10.6g} [{row['a'][0]:.6g}-{row['a'][2]:.6g}]"
                    f"  B {row['b'][1]:>10.6g} [{row['b'][0]:.6g}-{row['b'][2]:.6g}]"
                    f"  x{row['b'][1] / row['a'][1]:.3f}  B better {row['wins']}/{len(a)}"
                    f"  gap>IQR(A) {'yes' if row['gap_beyond_iqr'] else 'no':<3} {verdict}"
                )
                if name == "requests_per_s":
                    print("    A:", " ".join(f"{x:.0f}" for x in a))
                    print("    B:", " ".join(f"{x:.0f}" for x in b))
            for label, side in zip("AB", runs):
                bad = sum(r["failed"] for r in side)
                print(f"  {label}: {bad} failed of {sum(r['attempted'] for r in side)} attempted")
                failing |= bad > 0
            sys.stdout.flush()
    return 1 if failing else 2 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
