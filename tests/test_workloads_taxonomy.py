"""Tests for the purely-input workload generators (docqa/fewshot/selfconsistency)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import classify_trace
from repro.workloads import (
    DOCQA_SHAPE,
    FEWSHOT_SHAPE,
    WORKLOAD_NAMES,
    SelfConsistencyShape,
    WorkloadParams,
    generate_trace,
)
from repro.workloads.selfconsistency import stream_selfconsistency_trace


def common_prefix(a: np.ndarray, b: np.ndarray) -> int:
    limit = min(len(a), len(b))
    diff = a[:limit] != b[:limit]
    return int(np.argmax(diff)) if diff.any() else limit


class TestRegistry:
    def test_all_six_workloads_registered(self):
        assert set(WORKLOAD_NAMES) == {
            "lmsys", "sharegpt", "swebench", "docqa", "fewshot", "selfconsistency",
        }

    @pytest.mark.parametrize("name", ["docqa", "fewshot", "selfconsistency"])
    def test_registry_dispatch(self, name):
        trace = generate_trace(name, n_sessions=3, seed=1)
        assert trace.name == name
        assert trace.n_requests >= 3


class TestDocQA:
    def test_single_round_sessions(self):
        trace = generate_trace("docqa", n_sessions=12, seed=0)
        assert all(s.n_rounds == 1 for s in trace.sessions)

    def test_global_preamble_shared_by_all_sessions(self):
        trace = generate_trace("docqa", n_sessions=8, seed=0)
        first = trace.sessions[0].full_input(0)
        n = DOCQA_SHAPE.global_preamble_tokens
        for session in trace.sessions[1:]:
            assert common_prefix(first, session.full_input(0)) >= n

    def test_documents_shared_across_sessions(self):
        """With 6 documents and Zipf popularity, some pair of sessions must
        share a document-length prefix."""
        trace = generate_trace("docqa", n_sessions=12, seed=3)
        inputs = [s.full_input(0) for s in trace.sessions]
        best = max(
            common_prefix(inputs[i], inputs[j])
            for i in range(len(inputs))
            for j in range(i + 1, len(inputs))
        )
        assert best >= 8000 + DOCQA_SHAPE.global_preamble_tokens

    def test_inputs_dwarf_questions(self):
        trace = generate_trace("docqa", n_sessions=6, seed=1)
        lengths = trace.input_lengths()
        assert lengths.min() >= 8000

    def test_reuse_is_purely_input(self):
        report = classify_trace(generate_trace("docqa", n_sessions=20, seed=2))
        assert report.purely_input_tokens > 0
        assert report.purely_input_tokens > 50 * max(1, report.input_output_tokens)

    def test_deterministic_in_seed(self):
        a = generate_trace("docqa", n_sessions=4, seed=9)
        b = generate_trace("docqa", n_sessions=4, seed=9)
        for sa, sb in zip(a.sessions, b.sessions):
            assert np.array_equal(sa.full_input(0), sb.full_input(0))


class TestFewShot:
    def test_outputs_are_short(self):
        trace = generate_trace("fewshot", n_sessions=40, seed=0)
        assert np.median(trace.output_lengths()) <= FEWSHOT_SHAPE.output.maximum
        assert trace.output_lengths().max() <= 40

    def test_single_round_sessions(self):
        trace = generate_trace("fewshot", n_sessions=10, seed=0)
        assert all(s.n_rounds == 1 for s in trace.sessions)

    def test_templates_shared(self):
        trace = generate_trace("fewshot", n_sessions=60, seed=4)
        report = classify_trace(trace)
        # With 57 subjects and 60 sessions, collisions are guaranteed by
        # Zipf popularity; shared preamble alone guarantees some reuse.
        assert report.purely_input_tokens > 0
        assert report.input_output_tokens == 0


class TestSelfConsistency:
    def test_samples_share_identical_inputs(self):
        trace = generate_trace("selfconsistency", n_sessions=5, seed=0)
        by_input: dict[bytes, int] = {}
        for session in trace.sessions:
            key = session.full_input(0).tobytes()
            by_input[key] = by_input.get(key, 0) + 1
        counts = sorted(by_input.values())
        assert len(by_input) == 5  # one distinct prompt per query
        assert counts[0] >= 2  # every query sampled at least twice

    def test_metadata_counts(self):
        trace = generate_trace("selfconsistency", n_sessions=7, seed=1)
        assert trace.metadata["n_queries"] == 7
        assert trace.n_sessions == trace.n_requests >= 2 * 7  # k >= 2 samples each

    def test_samples_arrive_within_spread(self):
        shape = SelfConsistencyShape(sample_spread_s=0.25)
        trace = stream_selfconsistency_trace(
            shape, WorkloadParams(n_sessions=4, seed=2)
        ).materialize()
        groups: dict[bytes, list[float]] = {}
        for session in trace.sessions:
            groups.setdefault(session.full_input(0).tobytes(), []).append(
                session.arrival_time
            )
        for arrivals in groups.values():
            assert max(arrivals) - min(arrivals) <= 0.25 + 1e-9

    def test_outputs_differ_across_samples(self):
        trace = generate_trace("selfconsistency", n_sessions=3, seed=3)
        outputs = {s.rounds[0].output_tokens.tobytes() for s in trace.sessions}
        assert len(outputs) == trace.n_sessions

    def test_rejects_negative_spread(self):
        with pytest.raises(ValueError):
            SelfConsistencyShape(sample_spread_s=-1.0)

    def test_reuse_is_purely_input(self):
        report = classify_trace(generate_trace("selfconsistency", n_sessions=10, seed=5))
        assert report.purely_input_tokens > 0
        assert report.input_output_tokens == 0


class TestTaxonomyContrast:
    def test_chat_has_input_output_reuse_docqa_does_not(self):
        chat = classify_trace(generate_trace("lmsys", n_sessions=15, seed=6))
        docqa = classify_trace(generate_trace("docqa", n_sessions=15, seed=6))
        assert chat.input_output_tokens > 0
        assert docqa.input_output_tokens <= docqa.purely_input_tokens // 50


class TestDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        name=st.sampled_from(["docqa", "fewshot", "selfconsistency"]),
    )
    def test_generators_deterministic(self, seed, name):
        a = generate_trace(name, n_sessions=3, seed=seed)
        b = generate_trace(name, n_sessions=3, seed=seed)
        assert a.n_requests == b.n_requests
        for sa, sb in zip(a.sessions, b.sessions):
            assert sa.arrival_time == sb.arrival_time
            for ra, rb in zip(sa.rounds, sb.rounds):
                assert np.array_equal(ra.new_input_tokens, rb.new_input_tokens)
                assert np.array_equal(ra.output_tokens, rb.output_tokens)
