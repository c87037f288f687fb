"""Does the benchmark agree with itself?  ``python -m bench_e2e.repeat``.

Runs the full set twice with the same seed and once with a held-out seed,
and prints per workload and end-to-end metric both same-seed values, their
ratio, the bound and the held-out value.  Fails when the two same-seed sets
disagree by more than the metric's bound, when a simulated metric differs
at all, or when any run reports a failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bench_e2e.harness import load_spec, run_in_process_of_its_own

#: Deterministic in the seed: two runs must agree to the last bit.
SIMULATED = ("token_hit_rate", "sim_ttft_p50_ms", "sim_ttft_p95_ms")
SEED, HELD_OUT_SEED = 11, 12


def main() -> int:
    spec = load_spec()
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        first, second, held_out = (
            run_in_process_of_its_own(workload, seed, spec["run_seconds"])
            for seed in (SEED, SEED, HELD_OUT_SEED)
        )
        print(f"== {workload}: seed {SEED} twice, then seed {HELD_OUT_SEED}")
        for run in (first, second, held_out):
            if not run["correct"]:
                problems.append(f"{workload}: {run['failed']} failed rounds or checks")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b, c = (run["metrics"][name]["value"] for run in (first, second, held_out))
            exact = name in SIMULATED
            verdict = "ok"
            if exact and a != b:
                verdict = "SIMULATED METRIC DIFFERS"
            elif abs(b / a - 1.0) > metric["bound"]:
                verdict = "BEYOND BOUND"
            if verdict != "ok":
                problems.append(f"{workload} {name}: {a!r} vs {b!r} ({verdict})")
            print(
                f"  {name:<18} {a:>14.6g} {b:>14.6g}  ratio {b / a:7.4f}  "
                f"bound {'exact' if exact else format(metric['bound'], '.2f'):>5}  "
                f"held-out {c:>14.6g} {metric['unit']:<5} {verdict}"
            )
        sys.stdout.flush()
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
