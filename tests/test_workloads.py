"""Tests for distributions, vocab pools, trace schema, and generators."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tokens import TokenSeq
from repro.workloads.arrivals import PoissonProcess, exponential_think_times
from repro.workloads.distributions import GeometricCount, LogNormalLength, zipf_weights
from repro.workloads.mixture import mix_streams
from repro.workloads.registry import (
    WORKLOAD_NAMES,
    generate_trace,
    generate_trace_stream,
)
from repro.workloads.sessions import WorkloadParams
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

    # Medians that exp(log(m)) reproduces exactly: with sigma 0 the draw is
    # exactly m, a .5 that np.rint and round() must both send to even.
    HALVES = [k + 0.5 for k in range(400) if math.exp(math.log(k + 0.5)) == k + 0.5]

    @settings(max_examples=300, deadline=None)
    @given(
        median=st.one_of(st.sampled_from(HALVES), st.floats(0.01, 1e5)),
        # 800 overflows exp() to inf for any normal deviate above ~0.9.
        sigma=st.one_of(st.just(0.0), st.floats(0.0, 4.0), st.just(800.0)),
        bounds=st.lists(st.integers(1, 600), min_size=2, max_size=2).map(sorted),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lognormal_scalar_draw_equals_the_array_form(self, median, sigma, bounds, seed):
        dist = LogNormalLength(median, sigma, *bounds)
        scalar, array = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(16):
            assert dist.sample(scalar) == int(dist.sample_many(array, 1)[0])
        assert scalar.bit_generator.state == array.bit_generator.state

    def test_a_half_rounds_to_even(self):
        rng = np.random.default_rng(0)
        assert [LogNormalLength(m, 0.0).sample(rng) for m in (2.5, 3.5)] == [2, 4]

    @settings(max_examples=200, deadline=None)
    @given(
        mean=st.floats(1.0, 60.0),
        bounds=st.lists(st.integers(1, 40), min_size=2, max_size=2).map(sorted),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_geometric_clip_equals_the_numpy_form(self, mean, bounds, seed):
        dist = GeometricCount(mean, *bounds)
        ours, numpy_form = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(16):
            value = int(numpy_form.geometric(1.0 / mean))
            assert dist.sample(ours) == int(np.clip(value, *bounds))
        assert ours.bit_generator.state == numpy_form.bit_generator.state

    def test_zipf_weights_normalized_and_decreasing(self):
        w = zipf_weights(10, 1.2)
        assert w.sum() == pytest.approx(1.0)
        assert all(w[i] >= w[i + 1] for i in range(9))


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

    def test_template_lengths_are_the_templates(self):
        pool = SharedSegmentPool(
            base_seed=3, n_templates=4,
            length=LogNormalLength(median=40, sigma=0.5), vocab_size=1000,
        )
        assert pool.template_lengths == [len(pool.get(i)) for i in range(4)]


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

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
    def test_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            PoissonProcess(rate)


BAD_PARAMS = [
    ("session_rate", math.nan, "session_rate must be positive and finite"),
    ("session_rate", math.inf, "session_rate must be positive and finite"),
    ("session_rate", 0.0, "session_rate must be positive and finite"),
    ("mean_think_s", math.nan, "mean_think_s must be non-negative and finite"),
    ("mean_think_s", math.inf, "mean_think_s must be non-negative and finite"),
    ("mean_think_s", -1.0, "mean_think_s must be non-negative and finite"),
    ("n_sessions", 4.0, "n_sessions must be an integer"),
    ("n_sessions", True, "n_sessions must be an integer"),
    ("n_sessions", 0, "n_sessions must be positive"),
    ("vocab_size", 32000.0, "vocab_size must be an integer"),
    ("vocab_size", True, "vocab_size must be an integer"),
    ("vocab_size", 1, "vocab_size must be > 1"),
    ("seed", 1.5, "seed must be an integer"),
    ("seed", -1, "seed must be non-negative"),
]


class TestWorkloadParams:
    @pytest.mark.parametrize(
        ("field", "value", "message"),
        BAD_PARAMS,
        ids=[f"{field}={value!r}" for field, value, _ in BAD_PARAMS],
    )
    def test_bad_values_fail_at_construction(self, field, value, message):
        """A NaN or infinite time used to reach the kernel as NaN TTFTs."""
        with pytest.raises(ValueError, match=message):
            WorkloadParams(**{"n_sessions": 4, "seed": 1, field: value})

    def test_numpy_integers_are_integers(self):
        params = WorkloadParams(
            n_sessions=np.int64(4), seed=np.uint32(1), vocab_size=np.int32(100)
        )
        assert (params.n_sessions, params.seed, params.vocab_size) == (4, 1, 100)
        assert all(type(v) is int for v in (params.n_sessions, params.seed, params.vocab_size))
        assert generate_trace("lmsys", params).content_fingerprint() == generate_trace(
            "lmsys", n_sessions=4, seed=1, vocab_size=100
        ).content_fingerprint()


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

    def _long_rounds(self, n_rounds, seed=3, scale=1):
        rng = np.random.default_rng(seed)
        return [
            TraceRound(
                rng.integers(0, 1000, int(rng.integers(1, 400 * scale))).astype(np.int32),
                rng.integers(0, 1000, int(rng.integers(1, 60 * scale))).astype(np.int32),
            )
            for _ in range(n_rounds)
        ]

    def _long_session(self, n_rounds, seed=3):
        rounds = self._long_rounds(n_rounds, seed)
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
        passed = self._long_rounds(12)
        kept = [(r.new_input_tokens.copy(), r.output_tokens.copy()) for r in passed]
        session = TraceSession(7, 0.0, passed, [0.0] + [1.0] * 11)
        handles = [h for k in range(12) for h in session.interned_round(k)]
        assert len({id(h.data) for h in handles}) == 1
        assert handles[-1].tobytes() is handles[-1].data  # the last round is the buffer
        buffer = handles[-1].arr
        arrays = [a for r in session.rounds for a in (r.new_input_tokens, r.output_tokens)]
        for array in arrays + [h.arr for h in handles]:
            assert not array.flags.writeable
            assert np.shares_memory(array, buffer)
        # The arrays the caller passed stay the caller's: editing them
        # reaches neither the rounds nor a handle.
        for r in passed:
            assert not np.shares_memory(r.new_input_tokens, buffer)
            r.new_input_tokens[:] = -1
            r.output_tokens[:] = -1
        for r, (new_input, output) in zip(session.rounds, kept):
            np.testing.assert_array_equal(r.new_input_tokens, new_input)
            np.testing.assert_array_equal(r.output_tokens, output)
        assert session.interned_round(11)[1].tobytes() == np.concatenate(
            [a for pair in kept for a in pair]
        ).tobytes()
        # A mixed or remapped session is the same session under another id:
        # its rounds, buffer and resume anchors are its component's.
        trace = Trace(name="t", seed=0, sessions=[session])
        twins = (
            mix_streams([trace, trace]).materialize().sessions
            + mix_streams([TraceStream.from_trace(trace)]).materialize().sessions
        )
        assert sorted(t.session_id for t in twins) == [7, 7, 1_000_007]
        for twin in twins:
            assert np.shares_memory(twin.rounds[0].new_input_tokens, buffer)
            full_input, _ = twin.interned_round(4)
            assert full_input.data is handles[-1].data
            assert full_input.anchors is handles[-1].anchors

    @pytest.mark.parametrize("layout", ["list", "int64", "strided", "read-only"])
    def test_rounds_of_any_layout_build_the_same_session(self, layout):
        """The constructor joins each round's buffer as it lies, so it first
        makes every array C-contiguous int32: a list, an int64 array, a
        strided view or a read-only array builds the canonical session."""

        def relayout(arr):
            if layout == "list":
                return arr.tolist()
            if layout == "int64":
                return arr.astype(np.int64)
            if layout == "strided":
                return np.repeat(arr, 2)[::2]
            frozen = arr.copy()
            frozen.flags.writeable = False
            return frozen

        canonical = self._long_rounds(6)
        rounds = [
            TraceRound(relayout(r.new_input_tokens), relayout(r.output_tokens))
            for r in canonical
        ]
        if layout == "strided":
            assert not rounds[0].new_input_tokens.flags.c_contiguous
        think_times = [0.0] + [1.0] * 5
        want = TraceSession(7, 0.0, canonical, think_times)
        got = TraceSession(7, 0.0, rounds, think_times)
        assert got.interned_round(5)[1].tobytes() == want.interned_round(5)[1].tobytes()
        for ours, theirs in zip(got.rounds, want.rounds):
            for a, b in ((ours.new_input_tokens, theirs.new_input_tokens),
                         (ours.output_tokens, theirs.output_tokens)):
                assert a.dtype == np.int32 and not a.flags.writeable
                np.testing.assert_array_equal(a, b)
        assert (
            Trace("t", 0, [got]).content_fingerprint()
            == Trace("t", 0, [want]).content_fingerprint()
        )

    def test_materializing_every_round_allocates_about_one_session(self):
        """A session holds its tokens once, from construction: the buffer
        plus each round's two views.  Interning every round then allocates
        only the handles, no token bytes (the parent built the buffer there,
        beside the rounds' own arrays: two copies)."""
        import tracemalloc

        rounds = self._long_rounds(40, scale=10)
        session_bytes = 4 * sum(len(r.new_input_tokens) + len(r.output_tokens) for r in rounds)
        tracemalloc.start()
        try:
            session = TraceSession(7, 0.0, rounds, [0.0] + [1.0] * 39)
            built, _ = tracemalloc.get_traced_memory()
            handles = [session.interned_round(k) for k in range(40)]
            interned, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(handles) == 40
        assert built <= 1.1 * session_bytes, (built, session_bytes)
        assert interned - built <= 0.1 * session_bytes, (interned - built, session_bytes)

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

    def test_equality_is_identity(self):
        """Equal content in distinct arrays compares unequal instead of
        raising on an ambiguous array truth value."""
        a, b = (generate_trace("lmsys", WorkloadParams(n_sessions=2, seed=1)) for _ in "ab")
        assert a != b and a == a
        assert a.sessions[0] != b.sessions[0] and b.sessions[0] in b.sessions
        assert a.sessions[0].rounds[0] != b.sessions[0].rounds[0]
        assert b.sessions.index(b.sessions[1]) == 1
        assert a.content_fingerprint() == b.content_fingerprint()

    def test_jsonl_roundtrip(self, tmp_path):
        trace = generate_trace("lmsys", WorkloadParams(n_sessions=5, seed=3))
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
        trace = generate_trace("sharegpt", WorkloadParams(n_sessions=8, seed=4))
        times = [entry[3] for entry in trace.nominal_log()]
        assert times == sorted(times)


class TestGenerators:
    def test_deterministic_in_seed(self):
        a = generate_trace("lmsys", WorkloadParams(n_sessions=6, seed=9))
        b = generate_trace("lmsys", WorkloadParams(n_sessions=6, seed=9))
        assert a.n_requests == b.n_requests
        for sa, sb in zip(a.sessions, b.sessions):
            np.testing.assert_array_equal(sa.full_sequence(0), sb.full_sequence(0))

    def test_different_seeds_differ(self):
        a = generate_trace("lmsys", WorkloadParams(n_sessions=6, seed=1))
        b = generate_trace("lmsys", WorkloadParams(n_sessions=6, seed=2))
        assert not np.array_equal(a.sessions[0].full_sequence(0), b.sessions[0].full_sequence(0))

    def test_registry_names(self):
        assert {"lmsys", "sharegpt", "swebench"} <= set(WORKLOAD_NAMES)

    def test_global_preamble_opens_every_session(self):
        from repro.workloads.docqa import DOCQA_SHAPE
        from repro.workloads.sessions import global_preamble

        params = WorkloadParams(n_sessions=5, seed=4)
        preamble = global_preamble(DOCQA_SHAPE, params)
        assert len(preamble) == DOCQA_SHAPE.global_preamble_tokens > 0
        trace = generate_trace("docqa", params)
        for session in trace.sessions:
            head = session.full_sequence(0)[: len(preamble)]
            np.testing.assert_array_equal(head, preamble)
        # the same seed material: a second trace of the seed shares it
        np.testing.assert_array_equal(
            global_preamble(DOCQA_SHAPE, WorkloadParams(n_sessions=9, seed=4)), preamble
        )

    def test_a_generated_session_is_its_one_buffer(self):
        """A generated session writes its tokens once: its rounds are
        read-only views of the one buffer its last round's handle adopts,
        in order, and round 0's input opens with the preamble."""
        from repro.workloads.docqa import DOCQA_SHAPE
        from repro.workloads.sessions import global_preamble

        params = WorkloadParams(n_sessions=8, seed=4)
        preamble = global_preamble(DOCQA_SHAPE, params)
        for session in generate_trace("docqa", params).sessions:
            last = session.interned_round(session.n_rounds - 1)[1]
            arrays = [a for r in session.rounds for a in (r.new_input_tokens, r.output_tokens)]
            assert last.tobytes() is last.data
            assert b"".join(a.tobytes() for a in arrays) == last.data
            for array in arrays:
                assert len(array) > 0 and not array.flags.writeable
                assert np.shares_memory(array, last.arr)
            np.testing.assert_array_equal(
                session.rounds[0].new_input_tokens[: len(preamble)], preamble
            )

    def test_no_global_preamble_without_tokens(self):
        from repro.workloads.lmsys import LMSYS_SHAPE
        from repro.workloads.sessions import global_preamble

        preamble = global_preamble(LMSYS_SHAPE, WorkloadParams(seed=4))
        assert preamble.dtype == np.int32 and preamble.size == 0

    def test_content_fingerprint_tracks_content(self):
        params = WorkloadParams(n_sessions=6, seed=9)
        a = generate_trace("lmsys", params)
        assert a.content_fingerprint() == generate_trace("lmsys", params).content_fingerprint()
        assert (
            a.content_fingerprint()
            != generate_trace("lmsys", WorkloadParams(n_sessions=6, seed=10)).content_fingerprint()
        )
        assert (
            a.content_fingerprint()
            != generate_trace(
                "lmsys",
                WorkloadParams(n_sessions=6, seed=9, mean_think_s=1.0)
            ).content_fingerprint()
        )

    def test_selfconsistency_stream_is_the_trace(self):
        params = WorkloadParams(n_sessions=6, seed=12)
        trace = generate_trace("selfconsistency", params)
        streamed = generate_trace_stream("selfconsistency", params).materialize()
        assert streamed.content_fingerprint() == trace.content_fingerprint()
        assert streamed.metadata == trace.metadata
        assert trace.metadata["n_queries"] == 6
        with pytest.raises(TypeError, match="not both"):
            generate_trace_stream("selfconsistency", params, seed=1)
        for door in (generate_trace, generate_trace_stream):
            with pytest.raises(KeyError, match="unknown workload 'nope'"):
                door("nope")

    def test_params_and_kwargs_mutually_exclusive(self):
        for door in (generate_trace, generate_trace_stream):
            for name in WORKLOAD_NAMES:
                with pytest.raises(TypeError, match="not both"):
                    door(name, WorkloadParams(), n_sessions=5)

    def test_fig6_shape_sharegpt_short(self):
        """ShareGPT: short sequences (mostly < ~6K inputs, short outputs)."""
        trace = generate_trace("sharegpt", WorkloadParams(n_sessions=60, seed=5))
        assert trace.input_lengths().max() <= 8000
        assert np.median(trace.output_lengths()) < 300

    def test_fig6_shape_swebench_wide_inputs_short_outputs(self):
        trace = generate_trace("swebench", WorkloadParams(n_sessions=60, seed=5))
        inputs = trace.input_lengths()
        assert inputs.max() > 20000  # reaches tens of thousands
        assert np.percentile(inputs, 5) < 5000  # but also has short requests
        assert np.median(trace.output_lengths()) < 400

    def test_fig6_shape_lmsys_long_outputs(self):
        lmsys = generate_trace("lmsys", WorkloadParams(n_sessions=60, seed=5))
        sharegpt = generate_trace("sharegpt", WorkloadParams(n_sessions=60, seed=5))
        assert np.median(lmsys.output_lengths()) > np.median(sharegpt.output_lengths())

    def test_swebench_shares_preamble_across_sessions(self):
        """Every trajectory opens with a pooled repo-context template."""
        trace = generate_trace("swebench", WorkloadParams(n_sessions=20, seed=6))
        firsts = [s.rounds[0].new_input_tokens for s in trace.sessions]
        shared_pairs = 0
        for i in range(len(firsts)):
            for j in range(i + 1, len(firsts)):
                n = min(len(firsts[i]), len(firsts[j]), 256)
                if np.array_equal(firsts[i][:n], firsts[j][:n]):
                    shared_pairs += 1
        assert shared_pairs > 0

    def test_context_cap_respected(self):
        trace = generate_trace("swebench", WorkloadParams(n_sessions=40, seed=7))
        for session in trace.sessions:
            assert session.input_lengths()[-1] <= 38000 + 10000  # cap + one round

    def test_session_arrival_rate_scales(self):
        slow = generate_trace("lmsys", WorkloadParams(n_sessions=50, session_rate=0.5, seed=8))
        fast = generate_trace("lmsys", WorkloadParams(n_sessions=50, session_rate=2.0, seed=8))
        assert slow.sessions[-1].arrival_time > fast.sessions[-1].arrival_time


# Content fingerprints of every registered workload at FINGERPRINT_SESSIONS
# sessions, two seeds each.  Written with the generators that concatenated
# each round and drew templates through ``Generator.choice(p=)``: a change
# to how a trace is built or drawn must leave every token, id and time equal.
FINGERPRINT_SESSIONS = 40
FINGERPRINTS = {
    ("docqa", 5): 2186876136,
    ("docqa", 17): 3931990258,
    ("fewshot", 5): 1157560464,
    ("fewshot", 17): 1118337008,
    ("lmsys", 5): 2022761617,
    ("lmsys", 17): 1389704800,
    ("selfconsistency", 5): 2258351205,
    ("selfconsistency", 17): 1647487549,
    ("sharegpt", 5): 2167105620,
    ("sharegpt", 17): 2426754589,
    ("swebench", 5): 4066378301,
    ("swebench", 17): 4046124154,
}


class TestByteIdentity:
    def test_every_workload_is_pinned(self):
        assert {name for name, _ in FINGERPRINTS} == set(WORKLOAD_NAMES)

    @pytest.mark.parametrize(("name", "seed"), sorted(FINGERPRINTS))
    def test_generated_trace_is_pinned(self, name, seed):
        params = WorkloadParams(n_sessions=FINGERPRINT_SESSIONS, seed=seed)
        assert generate_trace(name, params).content_fingerprint() == FINGERPRINTS[name, seed]

    @pytest.mark.parametrize(("name", "seed"), sorted(FINGERPRINTS))
    def test_materialized_stream_is_pinned(self, name, seed):
        params = WorkloadParams(n_sessions=FINGERPRINT_SESSIONS, seed=seed)
        stream = generate_trace_stream(name, params)
        assert stream.materialize().content_fingerprint() == FINGERPRINTS[name, seed]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_templates", [1, 7, 64])
    def test_sample_index_draws_as_choice(self, seed, n_templates):
        """A template draw is ``Generator.choice(n, p=weights)``: the same
        index for the same double, and one double consumed per draw."""
        pool = SharedSegmentPool(
            base_seed=seed, n_templates=n_templates,
            length=LogNormalLength(median=8, sigma=0.1), vocab_size=100,
        )
        weights = zipf_weights(n_templates, pool.zipf_exponent)
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = [pool.sample_index(ours) for _ in range(10_000)]
        expected = [int(reference.choice(n_templates, p=weights)) for _ in range(10_000)]
        assert drawn == expected
        assert ours.random() == reference.random()
