"""Shared configuration for the benchmark harness.

Every paper table/figure has one benchmark module here.  Each bench runs its
figure harness once (``benchmark.pedantic`` with a single round — the
workloads are deterministic, so repetition only measures noise), prints the
regenerated series next to the paper's expectation, and asserts the
qualitative shape.

Scale defaults to ``bench``; set ``REPRO_BENCH_SCALE=smoke`` for a fast
pass or ``full`` for tighter statistics.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

# Benchmark modules fast enough (a few seconds) to stay in the default
# `pytest -x -q` lane; everything else here is marked `slow` and runs in the
# dedicated CI benchmark lane (`pytest -m slow`).
_FAST_MODULES = {
    "test_compare.py",
    "test_micro_core.py",
    "test_micro_kernel.py",
    "test_micro_router.py",
    "test_micro_steering.py",
    "test_micro_sweep.py",
}
_BENCH_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    for item in items:
        path = Path(str(item.fspath))
        if path.parent == _BENCH_DIR and path.name not in _FAST_MODULES:
            item.add_marker(pytest.mark.slow)


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "bench")


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


def run_once(benchmark, fn, *args):
    """Run ``fn`` exactly once under the benchmark timer and return it."""
    return benchmark.pedantic(fn, args=args, rounds=1, iterations=1)
