"""Tests for the process-pool sweep engine and the spec-keyed result caches.

The contract under test: parallel execution is a pure performance choice —
``run_specs(specs, n_workers=k)`` returns exactly what the serial path
returns, in the caller's order, for any ``k``; and the experiment-layer
caches are keyed by full value-based specs so pool workers (and forked
children generally) can never alias or leak each other's entries, which
the old ``id(trace)``-keyed module-global could.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest

from repro.experiments.config import default_model
from repro.experiments.parallel import (
    RunSpec,
    _chunk_by_trace,
    default_workers,
    execute_spec,
    run_specs,
)
from repro.experiments.runner import (
    ResultCache,
    clear_result_cache,
    clear_trace_cache,
    default_result_cache,
    get_trace,
    result_key,
    run_policy_on_trace,
)
from repro.experiments.sweeps import points_from_results, standard_sweep, sweep_specs
from repro.workloads import WorkloadParams, generate_trace


def _spec(policy="marconi", seed=3, workload="docqa", n_sessions=6, tag=""):
    return RunSpec(
        workload=workload,
        params=WorkloadParams(n_sessions=n_sessions, seed=seed),
        policy=policy,
        capacity_bytes=500_000_000,
        tag=tag,
    )


class TestDefaultWorkers:
    def test_one_worker_per_cpu_at_least_one(self, monkeypatch):
        import repro.experiments.parallel as parallel

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 6)
        assert default_workers() == 6
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
        assert default_workers() == 1


class TestRunSpec:
    def test_pickle_roundtrip(self):
        import pickle

        spec = _spec()
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity_bytes"):
            replace(_spec(), capacity_bytes=0)

    def test_trace_key_is_policy_and_capacity_blind(self):
        # Every policy and cache size of one point replays the same trace:
        # the paired comparison the paper's box plots need.
        base = _spec(policy="marconi", tag="cache=4")
        assert _spec(policy="vanilla", tag="cache=4").trace_key() == base.trace_key()
        assert replace(base, capacity_bytes=10**10).trace_key() == base.trace_key()

    def test_trace_key_tells_traces_apart(self):
        base = _spec()
        assert _spec(seed=4).trace_key() != base.trace_key()
        assert _spec(workload="lmsys").trace_key() != base.trace_key()
        assert _spec(n_sessions=7).trace_key() != base.trace_key()


class TestChunking:
    def test_chunks_are_trace_contiguous_and_complete(self):
        specs = [
            _spec(policy=p, seed=s)
            for s in (1, 2, 3)
            for p in ("vanilla", "marconi")
        ]
        chunks = _chunk_by_trace(specs, n_chunks=2)
        seen = sorted(index for chunk in chunks for index, _ in chunk)
        assert seen == list(range(len(specs)))
        for chunk in chunks:
            # Within a chunk, specs of one trace sit adjacent.
            keys = [spec.trace_key() for _, spec in chunk]
            for key in set(keys):
                positions = [i for i, k in enumerate(keys) if k == key]
                assert positions == list(range(positions[0], positions[-1] + 1))

    def test_more_chunks_than_specs(self):
        chunks = _chunk_by_trace([_spec()], n_chunks=8)
        assert len(chunks) == 1 and len(chunks[0]) == 1


class TestRunSpecs:
    def test_empty_is_empty(self):
        assert run_specs([]) == []

    def test_serial_matches_execute_spec(self):
        spec = _spec()
        a = run_specs([spec], n_workers=1)[0]
        b = execute_spec(spec)
        assert [asdict(r) for r in a.records] == [asdict(r) for r in b.records]

    def test_uncached_execution_reproduces_the_cached_result(self):
        # A result cache may only save time: a fresh run of the same spec
        # replays the same records.
        spec = _spec(seed=11)
        cached = execute_spec(spec)
        fresh = execute_spec(spec, use_cache=False)
        assert fresh is not cached
        assert [asdict(r) for r in fresh.records] == [asdict(r) for r in cached.records]
        assert fresh.cache_stats == cached.cache_stats

    def test_parallel_matches_serial_in_order(self):
        specs = [
            _spec(policy=p, seed=s, tag=f"{p}/{s}")
            for s in (1, 2)
            for p in ("vanilla", "sglang+", "marconi")
        ]
        serial = run_specs(specs, n_workers=1)
        parallel = run_specs(specs, n_workers=2)
        assert len(serial) == len(parallel) == len(specs)
        for spec, a, b in zip(specs, serial, parallel):
            assert a.policy == spec.policy == b.policy
            assert [asdict(r) for r in a.records] == [asdict(r) for r in b.records]
            assert a.cache_stats == b.cache_stats


class TestResultCache:
    def setup_method(self):
        clear_result_cache()
        clear_trace_cache()

    def test_keys_are_value_based_not_identity_based(self):
        model = default_model()
        params = WorkloadParams(n_sessions=4, seed=5)
        trace_a = generate_trace("docqa", params)
        trace_b = generate_trace("docqa", params)  # distinct object, same value
        key_a = result_key(model, trace_a, "marconi", 10**9, None, 32, None)
        key_b = result_key(model, trace_b, "marconi", 10**9, None, 32, None)
        assert trace_a is not trace_b
        assert key_a == key_b
        different = generate_trace("docqa", WorkloadParams(n_sessions=4, seed=6))
        assert result_key(model, different, "marconi", 10**9, None, 32, None) != key_a

    def test_equal_headers_different_content_do_not_alias(self):
        """Hand-built traces sharing name/seed/metadata/session-count must
        still key apart: the content fingerprint disambiguates."""
        import numpy as np

        from repro.workloads.trace import Trace, TraceRound, TraceSession

        def build(token: int) -> Trace:
            rounds = [TraceRound(np.array([token, token + 1]), np.array([9]))]
            return Trace(
                name="handmade", seed=0,
                sessions=[TraceSession(0, 0.0, rounds, [0.0])],
            )

        model = default_model()
        key_a = result_key(model, build(1), "marconi", 10**9, None, 32, None)
        key_b = result_key(model, build(2), "marconi", 10**9, None, 32, None)
        assert key_a != key_b
        assert result_key(model, build(1), "marconi", 10**9, None, 32, None) == key_a

    def test_anonymous_streams_fall_back_to_object_identity(self):
        """Streams without recipe identity must never share memo entries."""
        from repro.workloads.trace import TraceStream

        trace = generate_trace("docqa", WorkloadParams(n_sessions=3, seed=1))
        anon_a = TraceStream("x", 0, lambda: iter(trace.sessions))
        anon_b = TraceStream("x", 0, lambda: iter([]))  # same header, no content
        assert anon_a.cache_key() is None
        model = default_model()
        key_a = result_key(model, anon_a, "marconi", 10**9, None, 32, None)
        key_b = result_key(model, anon_b, "marconi", 10**9, None, 32, None)
        assert key_a != key_b

    def test_run_policy_on_trace_hits_across_equal_traces(self):
        model = default_model()
        params = WorkloadParams(n_sessions=4, seed=5)
        first = run_policy_on_trace(
            model, generate_trace("docqa", params), "marconi", 10**9
        )
        second = run_policy_on_trace(
            model, generate_trace("docqa", params), "marconi", 10**9
        )
        assert second is first  # value-keyed memo, not id-keyed
        assert len(default_result_cache()) == 1

    def test_lru_eviction_and_clear(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b (least recent)
        assert "b" not in cache and "a" in cache and "c" in cache
        cache.clear()
        assert len(cache) == 0

    def test_explicit_cache_instance_isolates_entries(self):
        model = default_model()
        trace = get_trace("docqa", WorkloadParams(n_sessions=4, seed=5))
        mine = ResultCache()
        run_policy_on_trace(model, trace, "marconi", 10**9, result_cache=mine)
        assert len(mine) == 1
        assert len(default_result_cache()) == 0


class TestSweepAdoption:
    def test_specs_cover_the_grid_in_order(self):
        specs = sweep_specs("sharegpt", "smoke", policies=("vanilla", "marconi"))
        # 2 think times x 4 cache sizes x 2 policies
        assert len(specs) == 16
        assert specs[0].tag == "think=5/cache=1.5"
        assert specs[0].policy == "vanilla" and specs[1].policy == "marconi"

    def test_policies_of_one_point_share_one_trace(self):
        specs = sweep_specs("sharegpt", "smoke", policies=("vanilla", "marconi"))
        by_tag: dict[str, set] = {}
        for spec in specs:
            by_tag.setdefault(spec.tag, set()).add(spec.trace_key())
        assert len(by_tag) == 8
        assert all(len(keys) == 1 for keys in by_tag.values())

    def test_points_fold_back_in_grid_order(self):
        policies = ("vanilla", "marconi")
        specs = sweep_specs("sharegpt", "smoke", policies=policies)
        results = run_specs(specs, n_workers=1)
        points = points_from_results("sharegpt", "smoke", policies, results)
        assert len(points) == 8
        for point, chunk_start in zip(points, range(0, len(results), 2)):
            assert point.results["vanilla"] is results[chunk_start]
            assert point.results["marconi"] is results[chunk_start + 1]

    def test_standard_sweep_parallel_equals_serial(self):
        policies = ("sglang+", "marconi")
        serial = standard_sweep("sharegpt", "smoke", policies=policies)
        parallel = standard_sweep(
            "sharegpt", "smoke", policies=policies, n_workers=2
        )
        assert [p.describe() for p in serial] == [p.describe() for p in parallel]
        for a, b in zip(serial, parallel):
            for policy in policies:
                assert a.hit_rate(policy) == b.hit_rate(policy)
