"""Tests for metrics: percentiles, hit-rate aggregation, TTFT, reporting."""

import numpy as np
import pytest

from repro.engine.results import EngineResult, RequestRecord, step_time_weighted_mean
from repro.metrics.fairness import coefficient_of_variation, jain_fairness
from repro.metrics.hit_rate import improvement_ratio, mean_hit_rate_by_length_bin
from repro.metrics.percentiles import BoxSummary, percentile
from repro.metrics.reporting import ascii_table, format_bytes
from repro.metrics.ttft import relative_ttft_percentile


def record(input_len, hit, ttft=0.1):
    return RequestRecord(0, 0, 0.0, 0.0, ttft, ttft, input_len, hit, 10, 0, 0.0)


class TestPercentiles:
    def test_basic(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 120)

    def test_box_summary_ordering(self, rng):
        box = BoxSummary.from_values(rng.normal(size=500))
        assert box.p5 <= box.q1 <= box.median <= box.q3 <= box.p95

    def test_box_summary_values(self):
        """Whiskers at P5/P95, box at the quartiles (linear interpolation)."""
        box = BoxSummary.from_values(np.arange(101))
        assert (box.p5, box.q1, box.median, box.q3, box.p95) == (5, 25, 50, 75, 95)


class TestPercentileEdgeCases:
    """Degenerate inputs exercised by the kernel's utilization telemetry."""

    def test_single_sample_is_its_own_percentile(self):
        for p in (0, 5, 50, 95, 100):
            assert percentile([7.5], p) == 7.5

    def test_all_equal_values(self):
        assert percentile([2.0] * 9, 95) == 2.0

    def test_boundary_percentiles(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 3.0

    def test_negative_percentile_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], -1)

    def test_box_summary_single_sample_collapses(self):
        box = BoxSummary.from_values([4.0])
        assert box.p5 == box.q1 == box.median == box.q3 == box.p95 == 4.0

    def test_box_summary_empty_raises(self):
        with pytest.raises(ValueError):
            BoxSummary.from_values([])


class TestFairness:
    """Load-balance metrics over replica sets, including degenerate ones."""

    def test_even_loads_are_perfectly_fair(self):
        assert jain_fairness([3.0, 3.0, 3.0]) == pytest.approx(1.0)
        assert coefficient_of_variation([3.0, 3.0, 3.0]) == pytest.approx(0.0)

    def test_one_hot_load_is_worst_case(self):
        n = 4
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(1 / n)

    def test_empty_replica_set_raises(self):
        with pytest.raises(ValueError):
            jain_fairness([])
        with pytest.raises(ValueError):
            coefficient_of_variation([])

    def test_single_replica(self):
        assert jain_fairness([5.0]) == pytest.approx(1.0)
        assert coefficient_of_variation([5.0]) == pytest.approx(0.0)

    def test_all_zero_loads(self):
        """Idle cluster: defined as perfectly fair / perfectly balanced."""
        assert jain_fairness([0.0, 0.0]) == 1.0
        assert coefficient_of_variation([0.0, 0.0]) == 0.0

    def test_negative_loads_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([1.0, -1.0])

    def test_accepts_ndarray(self):
        arr = np.asarray([1.0, 2.0, 3.0])
        assert 0 < jain_fairness(arr) <= 1.0
        assert coefficient_of_variation(arr) > 0.0


class TestStepTimeWeightedMean:
    """The integrator behind the kernel's utilization timeseries."""

    def test_empty_and_single_sample_are_zero(self):
        assert step_time_weighted_mean([]) == 0.0
        assert step_time_weighted_mean([(0.0, 5)]) == 0.0

    def test_constant_step_function(self):
        assert step_time_weighted_mean([(0.0, 2), (10.0, 2)]) == pytest.approx(2.0)

    def test_weighted_by_dwell_time(self):
        # value 4 for 1s, value 0 for 3s -> mean 1.0
        series = [(0.0, 4), (1.0, 0), (4.0, 0)]
        assert step_time_weighted_mean(series) == pytest.approx(1.0)

    def test_zero_span_is_zero(self):
        assert step_time_weighted_mean([(2.0, 3), (2.0, 7)]) == 0.0

    def test_engine_result_utilization_bounds(self):
        result = EngineResult(
            policy="x",
            max_running=2,
            running_series=[(0.0, 2), (1.0, 1), (2.0, 0)],
        )
        assert result.mean_running() == pytest.approx(1.5)
        assert result.executor_utilization() == pytest.approx(0.75)

    def test_engine_result_empty_series(self):
        result = EngineResult(policy="x")
        assert result.mean_queue_depth() == 0.0
        assert result.peak_queue_depth() == 0
        assert result.executor_utilization() == 0.0


class TestHitRate:
    def test_token_hit_rate_weighted(self):
        records = [record(100, 50), record(300, 0)]
        assert EngineResult("x", records).token_hit_rate == pytest.approx(50 / 400)

    def test_empty_is_zero(self):
        assert EngineResult("x").token_hit_rate == 0.0

    def test_improvement_ratio_floor(self):
        assert improvement_ratio(0.3, 0.0) == pytest.approx(0.3 / 1e-4)
        assert improvement_ratio(0.3, 0.1) == pytest.approx(3.0)

    def test_improvement_ratio_custom_floor(self):
        assert improvement_ratio(0.5, 0.001, floor=0.01) == pytest.approx(50.0)
        assert improvement_ratio(0.5, 0.1, floor=0.01) == pytest.approx(5.0)

    def test_binning(self):
        records = [record(500, 250), record(1500, 1500 * 0.8), record(2500, 0)]
        means, counts = mean_hit_rate_by_length_bin(records, np.asarray([0, 1000, 2000, 3000]))
        assert counts.tolist() == [1, 1, 1]
        assert means[0] == pytest.approx(0.5)
        assert means[1] == pytest.approx(0.8)
        assert means[2] == 0.0

    def test_binning_empty_bin_is_nan(self):
        means, counts = mean_hit_rate_by_length_bin([record(100, 0)], np.asarray([0, 50, 200]))
        assert counts[0] == 0 and np.isnan(means[0])

    def test_binning_validation(self):
        with pytest.raises(ValueError):
            mean_hit_rate_by_length_bin([], np.asarray([1.0]))


class TestTTFT:
    def test_relative_percentile(self):
        fast = EngineResult("fast", [record(10, 0, ttft=0.5) for _ in range(10)])
        slow = EngineResult("slow", [record(10, 0, ttft=1.0) for _ in range(10)])
        assert relative_ttft_percentile(fast, slow, 95) == pytest.approx(0.5)

    def test_relative_percentile_rejects_zero_baseline(self):
        result = EngineResult("x", [record(10, 0, ttft=0.5)])
        vanilla = EngineResult("vanilla", [record(10, 0, ttft=0.0)])
        with pytest.raises(ValueError, match="non-positive"):
            relative_ttft_percentile(result, vanilla)


class TestReporting:
    def test_ascii_table_alignment(self):
        table = ascii_table(["a", "bbb"], [[1, 2], [33, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len({len(line) for line in lines}) == 1  # all same width

    def test_ascii_table_validation(self):
        with pytest.raises(ValueError):
            ascii_table([], [])
        with pytest.raises(ValueError):
            ascii_table(["a"], [[1, 2]])

    def test_format_bytes(self):
        assert format_bytes(17.4e9) == "17.4 GB"
        assert format_bytes(26.7e6) == "26.7 MB"
        assert format_bytes(512) == "512 B"

    def test_format_bytes_kilobytes_and_negatives(self):
        assert format_bytes(1500) == "1.5 KB"
        assert format_bytes(-2.5e9) == "-2.5 GB"
        assert format_bytes(999) == "999 B"
