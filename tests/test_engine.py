"""Tests for the latency model and the discrete-event serving simulator."""

import dataclasses

import numpy as np
import pytest

from repro.baselines.vanilla import VanillaCache
from repro.core.cache import MarconiCache
from repro.engine.latency import LatencyModel
from repro.engine.request import EngineRequest
from repro.engine.results import EngineResult, RequestRecord
from repro.engine.server import ServingSimulator, simulate_trace
from repro.models.flops import model_prefill_flops
from repro.workloads.lmsys import generate_lmsys_trace
from repro.workloads.sessions import WorkloadParams
from repro.workloads.trace import Trace, TraceRound, TraceSession


class TestLatencyModel:
    def test_prefill_scales_with_flops(self, hybrid):
        lm = LatencyModel()
        t1 = lm.prefill_seconds(hybrid, 1000)
        t2 = lm.prefill_seconds(hybrid, 10000)
        assert t2 > t1 > lm.prefill_overhead_s

    def test_reuse_reduces_latency(self, hybrid):
        lm = LatencyModel()
        assert lm.prefill_seconds(hybrid, 10000, 8000, 0) < lm.prefill_seconds(hybrid, 10000)

    def test_fetch_term_charged(self, hybrid):
        lm = LatencyModel()
        free_fetch = lm.prefill_seconds(hybrid, 1000, 500, 0)
        paid_fetch = lm.prefill_seconds(hybrid, 1000, 500, int(1e9))
        assert paid_fetch - free_fetch == pytest.approx(1e9 / lm.fetch_bandwidth_bytes_per_s)

    def test_full_reuse_is_overhead_only(self, hybrid):
        lm = LatencyModel()
        assert lm.prefill_seconds(hybrid, 100, 100, 0) == pytest.approx(lm.prefill_overhead_s)

    def test_a100_scale_sanity(self, hybrid):
        """A 10K-token prefill of a 7B hybrid should land near ~1 s."""
        lm = LatencyModel()
        t = lm.vanilla_prefill_seconds(hybrid, 10000)
        assert 0.3 < t < 3.0

    def test_decode_linear(self):
        lm = LatencyModel()
        assert lm.decode_seconds(100) == pytest.approx(100 * lm.decode_seconds_per_token)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyModel(mfu=0)
        with pytest.raises(ValueError):
            LatencyModel(decode_seconds_per_token=-1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name", [spec.name for spec in dataclasses.fields(LatencyModel)]
    )
    def test_non_finite_fields_rejected(self, name, bad):
        """NaN passes every ``<= 0`` / ``< 0`` range test and inf most of
        them: a NaN overhead used to replay "successfully" with every ttft
        nan, an infinite peak priced compute at 0 s."""
        assert len(dataclasses.fields(LatencyModel)) == 9
        with pytest.raises(ValueError, match=name):
            LatencyModel(**{name: bad})

    def test_negative_reused_bytes_rejected(self, hybrid):
        """Negative reused_bytes used to be silently clamped to zero,
        masking accounting bugs upstream; now both paths reject it."""
        lm = LatencyModel()
        with pytest.raises(ValueError, match="reused_bytes"):
            lm.prefill_seconds(hybrid, 1000, 500, -1)
        with pytest.raises(ValueError, match="reused_bytes"):
            lm.prefill_seconds_batch(hybrid, [(1000, 500, -1, 0)])
        # A well-formed sibling item must not mask the bad one.
        with pytest.raises(ValueError, match="reused_bytes"):
            lm.prefill_seconds_batch(hybrid, [(1000, 0, 0, 0), (1000, 500, -7, 0)])

    def test_batch_is_bit_identical_to_scalar(self, hybrid):
        """The scheduler's batch path must reproduce the scalar method's
        floats exactly (== , not approx): both feed committed transcripts."""
        lm = LatencyModel()
        items = [
            (1000, 0, 0, 0),
            (10000, 8000, int(3e8), 0),
            (4096, 4096, int(1e9), int(4e8)),
            (777, 130, 12345678, 1234567),
        ]
        batch = lm.prefill_seconds_batch(hybrid, items)
        for (seq_len, reused_len, reused_bytes, secondary), got in zip(items, batch):
            assert got == lm.prefill_seconds(
                hybrid, seq_len, reused_len, reused_bytes, secondary
            )
        with pytest.raises(ValueError):
            lm.prefill_seconds_batch(hybrid, [(100, 0, 10, 20)])


class TestEngineRequest:
    def test_lengths(self):
        req = EngineRequest(0, 0, 0.0, np.arange(5, dtype=np.int32), np.arange(8, dtype=np.int32))
        assert req.input_len == 5 and req.output_len == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineRequest(0, 0, 0.0, np.arange(5, dtype=np.int32), np.arange(5, dtype=np.int32))


def _two_session_trace():
    def mk_round(seed, n_in=50, n_out=20):
        rng = np.random.default_rng(seed)
        return TraceRound(
            rng.integers(0, 1000, n_in).astype(np.int32),
            rng.integers(0, 1000, n_out).astype(np.int32),
        )

    sessions = [
        TraceSession(0, 0.0, [mk_round(1), mk_round(2)], [0.0, 1.0]),
        TraceSession(1, 0.5, [mk_round(3)], [0.0]),
    ]
    return Trace(name="mini", seed=0, sessions=sessions)


class TestSimulator:
    def test_all_requests_served(self, hybrid):
        trace = _two_session_trace()
        result = simulate_trace(hybrid, VanillaCache(hybrid), trace, policy_name="vanilla")
        assert result.n_requests == 3

    def test_fcfs_service_order(self, hybrid):
        trace = _two_session_trace()
        result = simulate_trace(hybrid, VanillaCache(hybrid), trace)
        starts = [r.service_start for r in result.records]
        assert starts == sorted(starts)

    def test_ttft_includes_queue_delay(self, hybrid):
        trace = _two_session_trace()
        result = simulate_trace(hybrid, VanillaCache(hybrid), trace)
        for record in result.records:
            assert record.ttft == pytest.approx(
                record.queue_delay + record.prefill_seconds
            )
            assert record.queue_delay >= 0

    def test_closed_loop_round_spacing(self, hybrid):
        """Round k+1 arrives exactly decode_end + think after round k."""
        trace = _two_session_trace()
        lm = LatencyModel()
        result = simulate_trace(hybrid, VanillaCache(hybrid), trace, lm)
        session0 = sorted(
            (r for r in result.records if r.session_id == 0),
            key=lambda r: r.round_index,
        )
        first, second = session0
        decode_end = first.service_start + first.prefill_seconds + lm.decode_seconds(first.output_len)
        assert second.arrival_time == pytest.approx(decode_end + 1.0)

    def test_cache_hits_reduce_ttft(self, hybrid):
        trace = _two_session_trace()
        vanilla = simulate_trace(hybrid, VanillaCache(hybrid), trace)
        cached = simulate_trace(
            hybrid, MarconiCache(hybrid, int(10e9), alpha=1.0), trace
        )
        # Session 0 round 1 reuses round 0's sequence.
        v = next(r for r in vanilla.records if (r.session_id, r.round_index) == (0, 1))
        c = next(r for r in cached.records if (r.session_id, r.round_index) == (0, 1))
        assert c.hit_tokens > 0 and v.hit_tokens == 0
        assert c.prefill_seconds < v.prefill_seconds

    def test_flops_saved_matches_hits(self, hybrid):
        trace = _two_session_trace()
        result = simulate_trace(hybrid, MarconiCache(hybrid, int(10e9), alpha=1.0), trace)
        for record in result.records:
            assert record.flops_saved == pytest.approx(
                model_prefill_flops(hybrid, record.hit_tokens)
            )

    def test_deterministic(self, hybrid):
        trace = generate_lmsys_trace(WorkloadParams(n_sessions=10, seed=3))
        a = simulate_trace(hybrid, MarconiCache(hybrid, int(5e9), alpha=1.0), trace)
        b = simulate_trace(hybrid, MarconiCache(hybrid, int(5e9), alpha=1.0), trace)
        assert [r.ttft for r in a.records] == [r.ttft for r in b.records]
        assert a.token_hit_rate == b.token_hit_rate

    def test_session_id_still_active_is_refused(self, hybrid):
        """Two sessions under one id used to overwrite each other in the
        kernel's table and die rounds later as ``KeyError: 0``."""
        trace = _two_session_trace()
        trace.sessions[1].session_id = trace.sessions[0].session_id
        with pytest.raises(ValueError, match="session_id 0 arrives while"):
            simulate_trace(hybrid, VanillaCache(hybrid), trace)

    def test_cache_stats_attached(self, hybrid):
        trace = _two_session_trace()
        result = simulate_trace(hybrid, MarconiCache(hybrid, int(10e9), alpha=1.0), trace)
        assert result.cache_stats["lookups"] == 3


class TestEngineResult:
    def _result(self):
        records = [
            RequestRecord(0, i, float(i), float(i), 0.1, 0.1 + 0.01 * i, 100, 20 * i, 10, 0, 0.0)
            for i in range(5)
        ]
        return EngineResult(policy="x", records=records)

    def test_token_hit_rate(self):
        result = self._result()
        assert result.token_hit_rate == pytest.approx(sum(20 * i for i in range(5)) / 500)

    def test_percentiles(self):
        result = self._result()
        assert result.ttft_percentile(0) == pytest.approx(0.1)
        assert result.ttft_percentile(100) == pytest.approx(0.14)

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            EngineResult(policy="x").ttft_percentile(50)

    def test_summary_keys(self):
        summary = self._result().summary()
        for key in ("token_hit_rate", "p95_ttft_s", "n_requests"):
            assert key in summary
