"""Property suite for the split-point steering cost model (compute-or-load v2).

Three invariants lock the planner:

1. **Bandwidth monotonicity** — raising the inter-replica link bandwidth
   never moves the chosen plan toward *more* recompute: the loaded depth
   (0 for recompute, the split point for split, the deepest checkpoint for
   full load) is non-decreasing in bandwidth.
2. **Degenerate byte-identity** — with splitting disabled (or no interior
   checkpoint available) the planner must reproduce the PR-4
   all-or-nothing compute-or-load rule expression-for-expression: same
   decision, same byte count, bit-identical cost floats.
3. **No leaks under mid-flight failure** — failing the split source (or a
   bystander/target replica) while a head transfer is in flight must
   leave zero pinned nodes, zero open sessions, and every round served.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DirectoryRouter, ScenarioEvent, simulate_cluster
from repro.engine.latency import LatencyModel
from repro.engine.steering import plan_split
from repro.experiments.steering_sweep import split_probe_trace
from repro.models.flops import model_suffix_prefill_flops
from repro.models.memory import kv_bytes, model_recurrent_bytes
from repro.models.presets import hybrid_7b
from repro.tiering import TieredMarconiCache

from _drain import assert_drained

HYBRID = hybrid_7b()


def _loaded_depth(plan, local_hit):
    """Tokens of state the plan ships (the 'how far from recompute' axis)."""
    if plan is None or plan.mode == "recompute":
        return local_hit
    return plan.depth


# Checkpoint layouts: a handful of interior depths below a deepest one.
_depth_sets = st.lists(
    st.integers(min_value=8, max_value=1990), min_size=1, max_size=6, unique=True
).map(sorted)


class TestBandwidthMonotonicity:
    @settings(max_examples=120, deadline=None)
    @given(
        depths=_depth_sets,
        local_hit=st.integers(min_value=0, max_value=400),
        total_len=st.integers(min_value=2000, max_value=4000),
        bw_lo=st.floats(min_value=1e7, max_value=1e11),
        bw_ratio=st.floats(min_value=1.0, max_value=100.0),
        min_tokens=st.sampled_from([1, 16, 64]),
    )
    def test_loaded_depth_non_decreasing_in_bandwidth(
        self, depths, local_hit, total_len, bw_lo, bw_ratio, min_tokens
    ):
        lo = LatencyModel(transfer_bandwidth_bytes_per_s=bw_lo)
        hi = LatencyModel(transfer_bandwidth_bytes_per_s=bw_lo * bw_ratio)
        plan_lo = plan_split(
            HYBRID, lo, total_len, local_hit, depths, min_tokens=min_tokens
        )
        plan_hi = plan_split(
            HYBRID, hi, total_len, local_hit, depths, min_tokens=min_tokens
        )
        assert (plan_lo is None) == (plan_hi is None)  # gate is bw-independent
        assert _loaded_depth(plan_hi, local_hit) >= _loaded_depth(
            plan_lo, local_hit
        ), (plan_lo, plan_hi)


def _pr4_rule(model, latency, total_len, local_hit, depth):
    """The PR-4 all-or-nothing compute-or-load rule, reimplemented verbatim
    from before the split planner existed (the conformance oracle)."""
    nbytes = kv_bytes(model, depth) + model_recurrent_bytes(model)
    load_seconds = (
        latency.transfer_seconds(nbytes)
        + nbytes / latency.secondary_fetch_bandwidth_bytes_per_s
    )
    saved_flops = model_suffix_prefill_flops(
        model, total_len, local_hit
    ) - model_suffix_prefill_flops(model, total_len, depth)
    recompute_seconds = saved_flops / latency.effective_flops_per_s
    return nbytes, load_seconds, recompute_seconds


class TestDegenerateByteIdentity:
    @settings(max_examples=120, deadline=None)
    @given(
        depths=_depth_sets,
        local_hit=st.integers(min_value=0, max_value=400),
        total_len=st.integers(min_value=2000, max_value=4000),
        bandwidth=st.floats(min_value=1e7, max_value=1e11),
        allow_split=st.booleans(),
    )
    def test_endpoints_match_pr4_rule_bit_for_bit(
        self, depths, local_hit, total_len, bandwidth, allow_split
    ):
        """With splitting off — or on, whenever an endpoint wins — the
        decision and its cost floats must equal the legacy rule exactly
        (==, not approx): same expressions, same evaluation order."""
        latency = LatencyModel(transfer_bandwidth_bytes_per_s=bandwidth)
        plan = plan_split(
            HYBRID, latency, total_len, local_hit, depths, allow_split=allow_split
        )
        usable = [d for d in depths if local_hit < d <= total_len - 1]
        if plan is None:
            assert not usable
            return
        deepest = usable[-1]
        nbytes, load_s, recompute_s = _pr4_rule(
            HYBRID, latency, total_len, local_hit, deepest
        )
        tail = model_suffix_prefill_flops(HYBRID, total_len, deepest)
        assert plan.est_load == load_s + tail / latency.effective_flops_per_s
        assert (
            plan.est_recompute == recompute_s + tail / latency.effective_flops_per_s
        )
        if not allow_split:
            assert plan.mode in ("load", "recompute")
        if plan.mode == "load":
            assert load_s < recompute_s  # PR-4 tie goes to recompute
            assert plan.depth == deepest and plan.nbytes == nbytes
        elif plan.mode == "recompute":
            assert not load_s < recompute_s
            assert plan.depth == local_hit and plan.nbytes == 0

    def test_single_candidate_never_splits(self):
        """One checkpoint depth == no interior point: splitting enabled or
        not, the plan must be the all-or-nothing decision."""
        latency = LatencyModel()
        for bw in (1e8, 1e9, 1e10, 1e11):
            latency = LatencyModel(transfer_bandwidth_bytes_per_s=bw)
            on = plan_split(HYBRID, latency, 3000, 100, (1500,), allow_split=True)
            off = plan_split(HYBRID, latency, 3000, 100, (1500,), allow_split=False)
            assert on == off
            assert on.mode in ("load", "recompute")


def _probe_caches(n):
    return [TieredMarconiCache(HYBRID, int(1e12), int(1e12)) for _ in range(n)]


def _run_probe(scenario, n_replicas=2, bandwidth=1e9):
    trace = split_probe_trace()
    caches = _probe_caches(n_replicas)
    result = simulate_cluster(
        HYBRID,
        caches,
        DirectoryRouter(split=True, transfer_min_tokens=16),
        trace,
        scenario=scenario,
        latency=LatencyModel(transfer_bandwidth_bytes_per_s=bandwidth),
    )
    return trace, caches, result



class TestMidFlightFailure:
    """The split probe's steered round arrives ~31s in (4 quick rounds,
    then a 30s think past the 10s drain of replica 0); failures injected
    across that window land before, during, and after the head transfer."""

    @settings(max_examples=40, deadline=None)
    @given(
        fail_time=st.floats(min_value=30.0, max_value=33.0),
        fail_replica=st.sampled_from([0, 1]),
        bandwidth=st.sampled_from([1e8, 3e8, 1e9]),
    )
    def test_no_leaks_whenever_a_replica_dies(
        self, fail_time, fail_replica, bandwidth
    ):
        scenario = [
            ScenarioEvent(10.0, "drain", replica=0),
            ScenarioEvent(fail_time, "fail", replica=fail_replica),
        ]
        trace, caches, result = _run_probe(
            scenario, n_replicas=3, bandwidth=bandwidth
        )
        assert_drained(caches, result, trace)

    def test_source_failure_during_transfer_drops_cleanly(self):
        """Sweep failure times until one provably lands mid-flight (the
        transfer outcome differs from the failure-free run), then check
        the drop left no debris behind."""
        trace, caches, baseline = _run_probe(
            [ScenarioEvent(10.0, "drain", replica=0)], n_replicas=3
        )
        base = baseline.steering_counter
        assert base("transfers_split") >= 1
        hit_mid_flight = False
        for fail_time in np.arange(30.0, 33.0, 0.1):
            scenario = [
                ScenarioEvent(10.0, "drain", replica=0),
                ScenarioEvent(float(fail_time), "fail", replica=0),
            ]
            trace, caches, result = _run_probe(scenario, n_replicas=3)
            assert_drained(caches, result, trace)
            counter = result.steering_counter
            if counter("transfers_completed") < base("transfers_completed") or (
                counter("transfers_stale_source") > 0
            ):
                hit_mid_flight = True
        assert hit_mid_flight, "no swept failure time interrupted the transfer"
