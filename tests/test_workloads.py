"""Tests for distributions, vocab pools, trace schema, and generators."""

import json

import numpy as np
import pytest

from repro.core.tokens import TokenSeq
from repro.workloads.arrivals import PoissonProcess, exponential_think_times
from repro.workloads.distributions import (
    GeometricCount,
    LogNormalLength,
    sample_zipf,
    zipf_weights,
)
from repro.workloads.lmsys import generate_lmsys_trace
from repro.workloads.registry import WORKLOAD_NAMES, generate_trace
from repro.workloads.sessions import WorkloadParams
from repro.workloads.sharegpt import generate_sharegpt_trace
from repro.workloads.swebench import generate_swebench_trace
from repro.workloads.trace import Trace, TraceRound, TraceSession, TraceStream
from repro.workloads.vocab import SharedSegmentPool, fresh_tokens


class TestDistributions:
    def test_lognormal_respects_clip(self, rng):
        dist = LogNormalLength(median=100, sigma=2.0, minimum=10, maximum=500)
        samples = dist.sample_many(rng, 2000)
        assert samples.min() >= 10 and samples.max() <= 500

    def test_lognormal_median_roughly_right(self, rng):
        dist = LogNormalLength(median=100, sigma=0.8, minimum=1, maximum=100000)
        samples = dist.sample_many(rng, 4000)
        assert 85 < np.median(samples) < 115

    def test_lognormal_validation(self):
        with pytest.raises(ValueError):
            LogNormalLength(median=0, sigma=1.0)
        with pytest.raises(ValueError):
            LogNormalLength(median=10, sigma=-1.0)
        with pytest.raises(ValueError):
            LogNormalLength(median=10, sigma=1.0, minimum=5, maximum=2)

    def test_geometric_mean_and_clip(self, rng):
        dist = GeometricCount(mean=4.0, minimum=1, maximum=10)
        samples = [dist.sample(rng) for _ in range(3000)]
        assert 1 <= min(samples) and max(samples) <= 10
        assert 3.0 < np.mean(samples) < 4.5

    def test_zipf_weights_normalized_and_decreasing(self):
        w = zipf_weights(10, 1.2)
        assert w.sum() == pytest.approx(1.0)
        assert all(w[i] >= w[i + 1] for i in range(9))

    def test_zipf_sample_in_range(self, rng):
        for _ in range(50):
            assert 0 <= sample_zipf(rng, 7, 1.0) < 7


class TestVocab:
    def test_fresh_tokens_shape_and_range(self, rng):
        t = fresh_tokens(rng, 100, 500)
        assert t.dtype == np.int32 and len(t) == 100
        assert t.min() >= 0 and t.max() < 500

    def test_pool_deterministic_across_instances(self):
        kwargs = dict(
            base_seed=42,
            n_templates=5,
            length=LogNormalLength(median=50, sigma=0.3),
            vocab_size=1000,
        )
        a, b = SharedSegmentPool(**kwargs), SharedSegmentPool(**kwargs)
        for i in range(5):
            np.testing.assert_array_equal(a.get(i), b.get(i))

    def test_pool_templates_distinct(self):
        pool = SharedSegmentPool(
            base_seed=1, n_templates=6,
            length=LogNormalLength(median=80, sigma=0.2), vocab_size=32000,
        )
        contents = {p.tobytes() for p in (pool.get(i) for i in range(6))}
        assert len(contents) == 6

    def test_pool_zipf_sampling_prefers_head(self, rng):
        pool = SharedSegmentPool(
            base_seed=2, n_templates=10,
            length=LogNormalLength(median=20, sigma=0.1), vocab_size=100,
            zipf_exponent=1.5,
        )
        draws = [pool.sample_index(rng) for _ in range(800)]
        assert draws.count(0) > draws.count(9)


class TestArrivals:
    def test_poisson_rate(self, rng):
        times = PoissonProcess(rate=2.0).arrival_times(rng, 4000)
        assert np.all(np.diff(times) >= 0)
        assert times[-1] / 4000 == pytest.approx(0.5, rel=0.1)

    def test_think_times_shape(self, rng):
        gaps = exponential_think_times(rng, 5, 3.0)
        assert len(gaps) == 5 and gaps[0] == 0.0
        assert all(g >= 0 for g in gaps)

    def test_single_round_session(self, rng):
        assert exponential_think_times(rng, 1, 5.0) == [0.0]

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            PoissonProcess(rate=0)
        with pytest.raises(ValueError):
            exponential_think_times(rng, 0, 1.0)


class TestTraceSchema:
    def _session(self):
        rounds = [
            TraceRound(np.asarray([1, 2, 3], dtype=np.int32), np.asarray([4, 5], dtype=np.int32)),
            TraceRound(np.asarray([6], dtype=np.int32), np.asarray([7, 8], dtype=np.int32)),
        ]
        return TraceSession(0, 1.0, rounds, [0.0, 2.5])

    def test_full_input_accumulates_context(self):
        session = self._session()
        np.testing.assert_array_equal(session.full_input(0), [1, 2, 3])
        np.testing.assert_array_equal(session.full_input(1), [1, 2, 3, 4, 5, 6])
        np.testing.assert_array_equal(session.full_sequence(1), [1, 2, 3, 4, 5, 6, 7, 8])

    def test_round_input_is_prefix_of_next(self):
        session = self._session()
        prev = session.full_sequence(0)
        nxt = session.full_input(1)
        np.testing.assert_array_equal(nxt[: len(prev)], prev)

    def test_round_keeps_one_token_buffer(self):
        # Out of order too: round 1 first, without round 0 materialized.
        session = self._session()
        for k in (1, 0):
            assert np.shares_memory(session.full_input(k), session.full_sequence(k))
        np.testing.assert_array_equal(session.full_input(1), [1, 2, 3, 4, 5, 6])

    def _long_session(self, n_rounds, seed=3):
        rng = np.random.default_rng(seed)
        rounds = [
            TraceRound(
                rng.integers(0, 1000, int(rng.integers(1, 400))).astype(np.int32),
                rng.integers(0, 1000, int(rng.integers(1, 60))).astype(np.int32),
            )
            for _ in range(n_rounds)
        ]
        return TraceSession(7, 0.0, rounds, [0.0] + [1.0] * (n_rounds - 1))

    def test_interned_rounds_in_any_order_equal_the_concatenation(self):
        session = self._long_session(12)
        order = np.random.default_rng(5).permutation(12).tolist()
        for k in order + order:  # asked twice: same values again
            parts = []
            for r in session.rounds[:k]:
                parts += [r.new_input_tokens, r.output_tokens]
            want_input = np.concatenate(parts + [session.rounds[k].new_input_tokens])
            want_full = np.concatenate([want_input, session.rounds[k].output_tokens])
            full_input, full_sequence = session.interned_round(k)
            assert isinstance(full_input, TokenSeq) and isinstance(full_sequence, TokenSeq)
            assert full_input == TokenSeq(want_input)
            assert full_sequence == TokenSeq(want_full)
            assert full_input.tobytes() == want_input.tobytes()
            np.testing.assert_array_equal(session.full_input(k), want_input)
            np.testing.assert_array_equal(session.full_sequence(k), want_full)
            assert len(full_input) == session.input_lengths()[k]

    def test_every_round_of_a_session_shares_one_buffer(self):
        session = self._long_session(12)
        handles = [h for k in range(12) for h in session.interned_round(k)]
        assert len({id(h.data) for h in handles}) == 1
        assert handles[-1].tobytes() is handles[-1].data  # the last round is the buffer
        for handle in handles:
            assert not handle.arr.flags.writeable
            assert np.shares_memory(handle.arr, handles[-1].arr)
        # The session's own round arrays are not the buffer: a caller that
        # edits them after materialization cannot reach a handle.
        session.rounds[0].new_input_tokens[:] = -1
        assert session.interned_round(0)[0] == handles[0]

    def test_materializing_every_round_allocates_about_one_session(self):
        """One concatenate plus one serialization per session, not one of each
        per round (a 40-round session used to allocate ≈20x its own bytes)."""
        import tracemalloc

        session = self._long_session(40)
        session_bytes = 4 * sum(
            len(r.new_input_tokens) + len(r.output_tokens) for r in session.rounds
        )
        tracemalloc.start()
        try:
            kept = [session.interned_round(k) for k in range(40)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kept) == 40
        assert peak <= 3 * session_bytes, (peak, session_bytes)

    def test_lengths(self):
        session = self._session()
        assert session.input_lengths() == [3, 6]
        assert session.output_lengths() == [2, 2]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one round"):
            TraceSession(0, 0.0, [], [])
        with pytest.raises(ValueError, match="think time"):
            TraceSession(0, 0.0, self._session().rounds, [1.0, 2.0])
        with pytest.raises(ValueError):
            TraceRound(np.asarray([], dtype=np.int32), np.asarray([1], dtype=np.int32))

    def test_jsonl_roundtrip(self, tmp_path):
        trace = generate_lmsys_trace(WorkloadParams(n_sessions=5, seed=3))
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        loaded = Trace.from_jsonl(path)
        assert loaded.name == trace.name and loaded.seed == trace.seed
        assert loaded.n_requests == trace.n_requests
        for a, b in zip(trace.sessions, loaded.sessions):
            assert a.think_times == pytest.approx(b.think_times)
            for ra, rb in zip(a.rounds, b.rounds):
                np.testing.assert_array_equal(ra.new_input_tokens, rb.new_input_tokens)
                np.testing.assert_array_equal(ra.output_tokens, rb.output_tokens)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "other"}\n')
        with pytest.raises(ValueError, match="trace file"):
            Trace.from_jsonl(path)

    GOOD_HEADER = {"kind": "trace-header", "name": "t", "seed": 1, "metadata": {}}
    GOOD_SESSION = {
        "session_id": 7,
        "arrival_time": 0.5,
        "think_times": [0.0],
        "rounds": [{"input": [1, 2], "output": [3]}],
    }

    @pytest.mark.parametrize(
        "header, second, where, what",
        [
            ({}, {"rounds": None}, ":3:", "lacks 'rounds'"),
            ({"name": None}, {}, ":1:", "lacks 'name'"),
            ({}, {"rounds": [{"input": [2**40], "output": [3]}]}, ":3:", "outside int32"),
            ({}, {"rounds": [{"input": [1.5], "output": [3]}]}, ":3:", "integer token ids"),
            ({}, {"arrival_time": "soon"}, ":3:", "arrival_time"),
            ({}, {"arrival_time": float("nan")}, ":3:", "arrival_time"),
            ({}, {"arrival_time": -3.0}, ":3:", "arrival_time"),
            ({}, {"session_id": 7}, ":3:", "session_id 7 is used twice"),
        ],
        ids=["no-rounds", "no-name", "token-2**40", "token-1.5", "arrival-str",
             "arrival-nan", "arrival-negative", "duplicate-id"],
    )
    @pytest.mark.parametrize("loader", ["trace", "stream"])
    def test_malformed_file_is_a_value_error_naming_the_line(
        self, tmp_path, loader, header, second, where, what
    ):
        """``None`` deletes a key.  The first session line is always good,
        so the report has to count lines, not sessions."""

        def edited(record, edits):
            record = {**record, **edits}
            return {k: v for k, v in record.items() if v is not None}

        path = tmp_path / "bad.jsonl"
        lines = [
            edited(self.GOOD_HEADER, header),
            self.GOOD_SESSION,
            edited({**self.GOOD_SESSION, "session_id": 8}, second),
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(ValueError, match=what) as err:
            if loader == "trace":
                Trace.from_jsonl(path)
            else:
                TraceStream.from_jsonl(path).materialize()
        assert f"{path}{where}" in str(err.value)

    def test_nominal_request_order_sorted(self):
        trace = generate_sharegpt_trace(WorkloadParams(n_sessions=8, seed=4))
        times = [t for t, *_ in trace.iter_requests_nominal()]
        assert times == sorted(times)


class TestGenerators:
    def test_deterministic_in_seed(self):
        a = generate_lmsys_trace(WorkloadParams(n_sessions=6, seed=9))
        b = generate_lmsys_trace(WorkloadParams(n_sessions=6, seed=9))
        assert a.n_requests == b.n_requests
        for sa, sb in zip(a.sessions, b.sessions):
            np.testing.assert_array_equal(sa.full_sequence(0), sb.full_sequence(0))

    def test_different_seeds_differ(self):
        a = generate_lmsys_trace(WorkloadParams(n_sessions=6, seed=1))
        b = generate_lmsys_trace(WorkloadParams(n_sessions=6, seed=2))
        assert not np.array_equal(a.sessions[0].full_sequence(0), b.sessions[0].full_sequence(0))

    def test_registry_names(self):
        assert {"lmsys", "sharegpt", "swebench"} <= set(WORKLOAD_NAMES)
        with pytest.raises(KeyError):
            generate_trace("nope")

    def test_params_and_kwargs_mutually_exclusive(self):
        with pytest.raises(TypeError):
            generate_lmsys_trace(WorkloadParams(), n_sessions=5)

    def test_fig6_shape_sharegpt_short(self):
        """ShareGPT: short sequences (mostly < ~6K inputs, short outputs)."""
        trace = generate_sharegpt_trace(WorkloadParams(n_sessions=60, seed=5))
        assert trace.input_lengths().max() <= 8000
        assert np.median(trace.output_lengths()) < 300

    def test_fig6_shape_swebench_wide_inputs_short_outputs(self):
        trace = generate_swebench_trace(WorkloadParams(n_sessions=60, seed=5))
        inputs = trace.input_lengths()
        assert inputs.max() > 20000  # reaches tens of thousands
        assert np.percentile(inputs, 5) < 5000  # but also has short requests
        assert np.median(trace.output_lengths()) < 400

    def test_fig6_shape_lmsys_long_outputs(self):
        lmsys = generate_lmsys_trace(WorkloadParams(n_sessions=60, seed=5))
        sharegpt = generate_sharegpt_trace(WorkloadParams(n_sessions=60, seed=5))
        assert np.median(lmsys.output_lengths()) > np.median(sharegpt.output_lengths())

    def test_swebench_shares_preamble_across_sessions(self):
        """Every trajectory opens with a pooled repo-context template."""
        trace = generate_swebench_trace(WorkloadParams(n_sessions=20, seed=6))
        firsts = [s.rounds[0].new_input_tokens for s in trace.sessions]
        shared_pairs = 0
        for i in range(len(firsts)):
            for j in range(i + 1, len(firsts)):
                n = min(len(firsts[i]), len(firsts[j]), 256)
                if np.array_equal(firsts[i][:n], firsts[j][:n]):
                    shared_pairs += 1
        assert shared_pairs > 0

    def test_context_cap_respected(self):
        trace = generate_swebench_trace(WorkloadParams(n_sessions=40, seed=7))
        for session in trace.sessions:
            assert session.input_lengths()[-1] <= 38000 + 10000  # cap + one round

    def test_session_arrival_rate_scales(self):
        slow = generate_lmsys_trace(WorkloadParams(n_sessions=50, session_rate=0.5, seed=8))
        fast = generate_lmsys_trace(WorkloadParams(n_sessions=50, session_rate=2.0, seed=8))
        assert slow.sessions[-1].arrival_time > fast.sessions[-1].arrival_time
