"""Tests for the capacity planner."""

import pytest

from repro.analysis import capacity_curve, recommend_capacity
from repro.analysis.capacity import CapacityPoint
from repro.models.memory import node_state_bytes
from repro.workloads import generate_trace


@pytest.fixture(scope="module")
def planner_trace():
    return generate_trace("lmsys", n_sessions=14, seed=91)


class TestCapacityCurve:
    def test_curve_is_sorted_and_bounded(self, hybrid, planner_trace):
        unit = node_state_bytes(hybrid, 2000, True)
        points = capacity_curve(
            hybrid, planner_trace, [8 * unit, 2 * unit, 32 * unit], policy="marconi"
        )
        assert [p.capacity_bytes for p in points] == sorted(
            p.capacity_bytes for p in points
        )
        for point in points:
            assert isinstance(point, CapacityPoint)
            assert 0.0 <= point.token_hit_rate <= 1.0

    def test_more_capacity_never_hurts_much(self, hybrid, planner_trace):
        unit = node_state_bytes(hybrid, 2000, True)
        points = capacity_curve(
            hybrid, planner_trace, [2 * unit, 8 * unit, 64 * unit], policy="marconi"
        )
        rates = [p.token_hit_rate for p in points]
        assert rates[-1] >= rates[0]

    def test_validation(self, hybrid, planner_trace):
        with pytest.raises(ValueError):
            capacity_curve(hybrid, planner_trace, [])
        with pytest.raises(ValueError):
            capacity_curve(hybrid, planner_trace, [0])


class TestRecommendCapacity:
    def test_finds_budget_for_attainable_target(self, hybrid, planner_trace):
        unit = node_state_bytes(hybrid, 2000, True)
        big = 128 * unit
        ceiling = capacity_curve(hybrid, planner_trace, [big])[0].token_hit_rate
        target = 0.5 * ceiling
        rec = recommend_capacity(
            hybrid, planner_trace, target, low_bytes=unit, high_bytes=big
        )
        assert rec.attainable and rec.meets_target
        assert unit <= rec.capacity_bytes <= big
        # The recommendation is real: replaying at that budget meets target.
        check = capacity_curve(hybrid, planner_trace, [rec.capacity_bytes])[0]
        assert check.token_hit_rate >= target

    def test_unattainable_target_flagged(self, hybrid, planner_trace):
        unit = node_state_bytes(hybrid, 2000, True)
        rec = recommend_capacity(
            hybrid, planner_trace, 0.99, low_bytes=unit, high_bytes=4 * unit
        )
        assert not rec.attainable
        assert rec.capacity_bytes == 4 * unit
        assert not rec.meets_target

    def test_validation(self, hybrid, planner_trace):
        with pytest.raises(ValueError):
            recommend_capacity(hybrid, planner_trace, 0.0, low_bytes=1, high_bytes=2)
        with pytest.raises(ValueError):
            recommend_capacity(hybrid, planner_trace, 0.5, low_bytes=5, high_bytes=5)
        with pytest.raises(ValueError):
            recommend_capacity(
                hybrid, planner_trace, 0.5, low_bytes=1, high_bytes=2, rel_tol=2.0
            )
