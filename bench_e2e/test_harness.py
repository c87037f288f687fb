"""Fast checks of the benchmark's own arithmetic and wiring (no timing
assertions): span self times, the percentile-support rule, and that a
smoke run of every workload emits exactly the metrics ``BENCHMARK.json``
names and leaves no patched method behind."""

from __future__ import annotations

import json
import re

import pytest

from bench_e2e.harness import (
    OUT_DIR,
    load_spec,
    quartiles,
    samples_beyond,
    self_times,
    spread,
    supported,
)

SPEC = load_spec()
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


class TestSelfTimes:
    def test_nested(self):
        # root [0,10] > a [1,6] > b [2,4]; c [7,9] under root.
        starts, ends = [0, 1, 2, 7], [10, 6, 4, 9]
        parents = [-1, 0, 1, 0]
        assert self_times(starts, ends, parents) == [3, 3, 2, 2]

    def test_overlapping_children_count_their_union_once(self):
        # Two concurrent requests under one loop span: [1,5] and [3,8].
        assert self_times([0, 1, 3], [10, 5, 8], [-1, 0, 0]) == [3, 4, 5]

    def test_child_outliving_its_parent_is_clipped(self):
        assert self_times([0, 2], [5, 9], [-1, 0]) == [2, 7]

    def test_contained_sibling_adds_nothing(self):
        # [2,3] lies inside its sibling [1,6].
        assert self_times([0, 1, 2], [10, 6, 3], [-1, 0, 0]) == [5, 5, 1]

    def test_self_times_of_a_tree_sum_to_the_root(self):
        starts, ends = [0.0, 0.5, 1.0, 4.0, 4.5], [9.0, 3.5, 2.0, 8.0, 6.0]
        parents = [-1, 0, 1, 0, 3]
        assert sum(self_times(starts, ends, parents)) == pytest.approx(9.0)


class TestPercentileSupport:
    def test_ten_samples_beyond(self):
        assert samples_beyond(1000, 99) == 10 and supported(1000, 99)
        assert samples_beyond(999, 99) == 9 and not supported(999, 99)
        assert supported(200, 95) and not supported(199, 95)

    def test_spread_is_iqr_over_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        q1, median, q3 = quartiles(values)
        assert median == 14.5
        assert spread(values) == pytest.approx((q3 - q1) / 14.5)
        assert quartiles([3.0]) == (3.0, 3.0, 3.0)


class TestProbe:
    def test_tick_samples_every_nth_round_until_muted(self):
        from bench_e2e.hostspeed import Probe

        probe = Probe(every=3)
        for _ in range(7):
            probe.tick()
        assert probe.samples == 2 and probe.seconds > 0
        probe.mute()
        for _ in range(7):
            probe.tick()
        assert probe.samples == 2

    def test_a_region_is_judged_by_edge_samples_and_does_not_include_them(
        self, monkeypatch
    ):
        from bench_e2e import hostspeed
        from bench_e2e.hostspeed import EDGE_SAMPLES, REFERENCE_NOMINAL_S, Probe

        ticks = iter(range(10**6))  # a clock that advances 1 s per reading
        monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: float(next(ticks)))
        probe = Probe()  # never ticks: a set-up
        with probe.edges():
            probe.start()
            probe.sample(4)  # inside the region: 8 readings, 4 s sampled
            # start's reading, 8 inside, stop's own: 9 s apart, 4 s of them samples.
            assert probe.stop() == 5.0
        assert probe.samples == 2 * EDGE_SAMPLES + 4
        assert probe.slowdown == pytest.approx(1.0 / REFERENCE_NOMINAL_S)


class TestContract:
    def test_names_and_limits(self):
        name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
        unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
        names = []
        for section in ("workloads", "end_to_end", "per_layer"):
            for entry in SPEC[section]:
                assert name.fullmatch(entry["name"]), entry
                names.append(entry["name"])
        assert len(names) == len(set(names))
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert unit.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
        for metric in SPEC["end_to_end"]:
            assert 0 < metric["bound"] <= 0.25
        for workload in SPEC["workloads"]:
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        setup = {m["name"]: m for m in SPEC["end_to_end"]}["setup_s"]
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
        assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= SPEC["run_seconds"] <= 60


def test_floors_gate_a_full_size_run_only():
    from bench_e2e.measure import _check_floors
    from bench_e2e.workloads import WORKLOADS, Verdict

    fleet = WORKLOADS["fleet_steer"]
    starved = {name: floor * 4 - 1 for name, floor in fleet.floors.items()}
    full, smoke = Verdict(), Verdict()
    _check_floors(fleet, starved, 4, 1.0, full)
    _check_floors(fleet, starved, 4, 0.02, smoke)
    assert len(full.failures) == len(fleet.floors) > 0
    assert smoke.checks == 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_emits_the_contract(workload):
    from bench_e2e.run import run_workload
    from bench_e2e.tracing import patched_attributes

    before = [(owner, attr, vars(owner)[attr]) for owner, attr in patched_attributes()]

    untraced = run_workload(workload, seed=5, seconds=0, trace=False, scale=0.02)
    assert untraced["failed"] == 0 and untraced["correct"], untraced["detail"]
    assert list(untraced["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        emitted = untraced["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"] and emitted["value"] > 0

    traced = run_workload(workload, seed=5, seconds=0, trace=True, scale=0.02)
    assert traced["failed"] == 0 and traced["correct"], traced["detail"]
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    layers = {name: m["value"] for name, m in traced["metrics"].items()}
    assert layers["core.cache.begin_calls"] > 0 and layers["trace.spans"] > 0
    for only_on_the_fleet in (
        "core.tokens.hash_calls",
        "cluster.router.decide_calls",
        "cluster.sharded_directory.lookup_calls",
        "cluster.sharded_directory.update_events",
    ):
        assert (layers[only_on_the_fleet] > 0) == (workload == "fleet_steer")
    if workload == "cache_reuse":
        assert layers["core.eviction.select_calls"] == 0
    assert (layers["serving.server.serve_calls"] > 0) == (workload == "gateway_live")
    assert (layers["engine.kernel.events"] > 0) == (workload != "gateway_live")

    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} left patched"

    spans = (OUT_DIR / f"{workload}.spans.jsonl").read_text().splitlines()
    assert len(spans) == layers["trace.spans"]
    for index, line in enumerate(spans):
        span = json.loads(line)
        assert span["end"] >= span["start"] and -1 <= span["parent"] < index
