"""Arithmetic shared by the runner, the repeat check and the tests.

Nothing here imports ``repro``: the percentile rule, the run-to-run spread
and the span self-time computation are checked on hand-made inputs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def load_spec() -> dict:
    """The benchmark contract (workloads, metrics, bounds)."""
    return json.loads(SPEC_PATH.read_text())


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def samples_beyond(n_samples: int, q: float) -> int:
    """How many of ``n_samples`` lie strictly above their ``q``-th percentile."""
    return int(n_samples * (100.0 - q) / 100.0)


def supported(n_samples: int, q: float) -> bool:
    """Does the sample carry the ``q``-th percentile (>= 10 samples beyond)?"""
    return samples_beyond(n_samples, q) >= MIN_BEYOND


def percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q))


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Per-span self time: duration minus what its child spans cover.

    Spans are indexed in start order and ``parents[i]`` is the index of the
    span that caused span ``i`` (``-1`` for a root).  Children of one span
    may overlap each other (concurrent requests) or outlive it; the covered
    part is the union of the child intervals clipped to the parent.
    """
    covered = [0.0] * len(starts)
    frontier = list(starts)  # per span: where the union of its children ends
    for i, parent in enumerate(parents):
        if parent < 0:
            continue
        lo = max(starts[i], frontier[parent])
        hi = min(ends[i], ends[parent])
        if hi > lo:
            covered[parent] += hi - lo
            frontier[parent] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


def run_in_process_of_its_own(workload: str, seed: int, seconds: float) -> dict:
    """Run the benchmark command for one workload, untraced; its final JSON line."""
    command = [
        sys.executable,
        str(Path(__file__).resolve().parent / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    if not done.stdout.strip():
        raise RuntimeError(f"{' '.join(command)} printed nothing:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])
