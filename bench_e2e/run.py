"""The benchmark command: ``python3 bench_e2e/run.py``.

``--workload NAME --seed N --seconds S --trace 0|1`` measures one workload
in this process, prints every metric by name with its unit, writes the full
result under ``bench_e2e/out/`` and ends with one JSON line (``correct``,
``attempted``, ``failed``, ``metrics``).  Without ``--workload`` each of the
four workloads runs in a process of its own.  Exit status is non-zero when
an output was wrong or a round was never served.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script from a checkout: no PYTHONPATH
    _root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(_root), str(_root / "src")]

import numpy as np

from bench_e2e.harness import OUT_DIR, ROOT, load_spec
from bench_e2e.measure import measure_traced, measure_untraced
from bench_e2e.workloads import WORKLOADS

IMPORT_S = time.perf_counter() - _PROCESS_START


def _git_rev() -> str:
    if not (ROOT / ".git").exists():  # an exported checkout has no history
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    """Measure one workload in this process; the full result document."""
    spec = load_spec()
    workload = WORKLOADS[name]
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        result = measure_traced(workload, seed, seconds, scale, units)
    else:
        result = measure_untraced(workload, seed, seconds, scale)
        result["detail"]["import_s"] = IMPORT_S
    result["provenance"] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "traced": trace,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }
    return result


def _print_report(result: dict) -> None:
    prov, detail = result["provenance"], result["detail"]
    mode = "traced (per-layer)" if prov["traced"] else "untraced (end-to-end)"
    print(f"== {prov['workload']}  seed {prov['seed']}  {mode}  scale {prov['scale']:g}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")
    if prov["traced"]:
        wall = sum(detail["self_seconds"].values())
        print(
            f"  {detail['pairs']} untraced/traced pairs of {detail['rounds']} rounds; "
            f"median self time by span:"
        )
        for span, self_s in sorted(detail["self_seconds"].items(), key=lambda kv: -kv[1]):
            print(
                f"    {span:<36} {detail['calls'][span]:>8} calls {self_s:>9.4f} s "
                f"{self_s / wall:6.1%}"
            )
    else:
        q1, median, q3 = detail["slowdown_quartiles"]
        print(
            f"  requests_per_s and setup_s are at the host's nominal speed; its slowdown "
            f"was {median:.2f} (quartiles {q1:.2f} .. {q3:.2f}) and the clock read "
            f"{detail['requests_per_s_clock']:.1f} 1/s, {detail['setup_clock_s']:.4f} s"
        )
        print(
            f"  {detail['repetitions']} repetitions over {detail['sub_traces']} "
            f"sub-traces, the fastest of each counted; once per process before them: "
            f"imports {detail['import_s']:.3f}s, warm-up {detail['warmup_s']:.3f}s"
        )
        print(
            f"  sim_ttft_* over {detail['sim_ttft_samples']} rounds of the "
            f"{detail['sim_ttft_source']}"
        )
        print(
            f"  sim_ttft_p99_ms {detail['sim_ttft_p99_ms']:.4f} ms, not gated "
            f"({detail['sim_ttft_p99_beyond']} samples beyond)"
        )
    share = result["failed"] / result["attempted"]
    print(
        f"  failed_share {share:.6f} "
        f"({result['failed']} of {result['attempted']} rounds and checks)"
    )
    for failure in detail["failures"]:
        print(f"  FAILED {failure}")


def _write_result(result: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    prov = result["provenance"]
    suffix = "traced" if prov["traced"] else "e2e"
    path = OUT_DIR / f"{prov['workload']}.seed{prov['seed']}.{suffix}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def _contract_line(result: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({key: result[key] for key in keys})


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink every session count (smoke runs)"
    )
    args = parser.parse_args(argv)

    if args.workload is None:
        # One process per workload: peak RSS and import time are its own.
        status = 0
        for name in WORKLOADS:
            forwarded = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                name,
                *(argv if argv is not None else sys.argv[1:]),
            ]
            status |= subprocess.run(forwarded).returncode
        return status

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    _print_report(result)
    print(f"  full result: {_write_result(result).relative_to(ROOT)}")
    print(_contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
