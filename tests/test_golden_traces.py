"""Golden-trace regression suite: frozen traces, frozen end-to-end numbers.

Three small traces are committed under ``tests/fixtures/`` as JSONL files,
together with the expected summary of replaying each one across the
cache-policy x engine matrix (serving, iteration-level, and 2-replica
cluster).  The traces are *frozen artifacts*: they were generated once and
are loaded from disk, so generator changes cannot silently shift what
these tests measure — any change in the committed numbers is a real
behavioural change in the caches or engines and must be reviewed, not
absorbed.

Regenerating after an intentional change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py

then commit the updated ``tests/fixtures/golden_expected.json`` (and say
why in the PR).  See docs/testing.md.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.baselines.registry import make_cache
from repro.cluster.router import PrefixAffinityRouter
from repro.cluster.simulator import simulate_cluster
from repro.engine.iteration import simulate_trace_iteration
from repro.engine.latency import LatencyModel
from repro.engine.server import simulate_trace
from repro.metrics.export import summary_dict
from repro.models.presets import hybrid_7b
from repro.workloads.trace import Trace

FIXTURES = Path(__file__).parent / "fixtures"
EXPECTED_PATH = FIXTURES / "golden_expected.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

POLICIES = ("vanilla", "vllm+", "sglang+", "marconi")

#: name -> (trace file, cache capacity in bytes).  Capacities sit in each
#: trace's contention region so hit rates are neither 0 nor saturated.
GOLDEN_TRACES: dict[str, tuple[str, int]] = {
    "golden_chat": ("golden_chat.trace.jsonl", 600_000_000),
    "golden_agent": ("golden_agent.trace.jsonl", 3_000_000_000),
    "golden_mix": ("golden_mix.trace.jsonl", 1_500_000_000),
}

ENGINES = ("serving", "iteration", "cluster")


def _load_trace(name: str) -> Trace:
    path, _ = GOLDEN_TRACES[name]
    return Trace.from_jsonl(FIXTURES / path)


def _run_matrix_cell(name: str, engine: str, policy: str) -> dict:
    """Replay one golden trace through one engine under one policy."""
    trace = _load_trace(name)
    _, capacity = GOLDEN_TRACES[name]
    model = hybrid_7b()
    latency = LatencyModel()
    if engine == "serving":
        result = simulate_trace(
            model, make_cache(policy, model, capacity), trace, latency,
            policy_name=policy,
        )
        summary = summary_dict(result)
    elif engine == "iteration":
        result = simulate_trace_iteration(
            model, make_cache(policy, model, capacity), trace, latency,
            policy_name=policy,
        )
        summary = summary_dict(result)
        summary["n_iterations"] = result.n_iterations
        summary["tbt_p95"] = result.tbt_percentile(95)
    elif engine == "cluster":
        caches = [make_cache(policy, model, capacity // 2) for _ in range(2)]
        result = simulate_cluster(
            model, caches, PrefixAffinityRouter(), trace, latency
        )
        summary = {
            "policy": policy,
            "n_requests": result.n_requests,
            "token_hit_rate": result.token_hit_rate,
            "routed_counts": list(result.routed_counts),
            "busy_seconds": list(result.busy_seconds),
            "ttft_p50": result.ttft_percentile(50),
            "ttft_p95": result.ttft_percentile(95),
            "load_fairness": result.load_fairness,
        }
    else:  # pragma: no cover - matrix misconfiguration
        raise ValueError(f"unknown engine {engine!r}")
    return summary


def _assert_matches(actual, expected, path: str) -> None:
    """Recursive comparison: exact for ints/strs, tight-tolerance floats."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected dict, got {type(actual)}"
        assert sorted(actual) == sorted(expected), (
            f"{path}: keys differ: {sorted(actual)} vs {sorted(expected)}"
        )
        for key in expected:
            _assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{path}: length differs"
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, bool) or not isinstance(expected, (int, float)):
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"
    elif isinstance(expected, float) or isinstance(actual, float):
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-12), (
            f"{path}: {actual!r} != {expected!r}"
        )
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


def _expected() -> dict:
    if not EXPECTED_PATH.exists():  # pragma: no cover - fixture missing
        pytest.fail(
            f"{EXPECTED_PATH} missing; regenerate with REPRO_REGEN_GOLDEN=1"
        )
    return json.loads(EXPECTED_PATH.read_text())


@pytest.fixture(scope="module")
def expected() -> dict:
    return _expected()


class TestFixturesAreFrozen:
    """The committed traces themselves (not just results) stay bit-stable."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
    def test_trace_loads_and_matches_header(self, name, expected):
        if REGEN:
            pytest.skip("regeneration run; comparisons are stale by design")
        trace = _load_trace(name)
        meta = expected[name]["trace"]
        assert trace.n_sessions == meta["n_sessions"]
        assert trace.n_requests == meta["n_requests"]
        assert trace.total_input_tokens == meta["total_input_tokens"]
        assert int(trace.input_lengths().max()) == meta["max_input_len"]


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
@pytest.mark.parametrize("engine", ENGINES)
class TestGoldenMatrix:
    def test_cell_matches_committed_numbers(self, name, engine, expected):
        if REGEN:
            pytest.skip("regeneration run; see regen hook below")
        for policy in POLICIES:
            actual = _run_matrix_cell(name, engine, policy)
            _assert_matches(
                actual,
                expected[name]["engines"][engine][policy],
                f"{name}.{engine}.{policy}",
            )


def test_regenerate_golden_expectations():
    """Rewrites the expected-summary fixture when REPRO_REGEN_GOLDEN=1."""
    if not REGEN:
        pytest.skip("set REPRO_REGEN_GOLDEN=1 to regenerate")
    payload: dict = {}
    for name in sorted(GOLDEN_TRACES):
        trace = _load_trace(name)
        payload[name] = {
            "trace": {
                "n_sessions": trace.n_sessions,
                "n_requests": trace.n_requests,
                "total_input_tokens": trace.total_input_tokens,
                "max_input_len": int(trace.input_lengths().max()),
            },
            "engines": {
                engine: {
                    policy: _run_matrix_cell(name, engine, policy)
                    for policy in POLICIES
                }
                for engine in ENGINES
            },
        }
    EXPECTED_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
