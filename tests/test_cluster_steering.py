"""Cluster steering: state transfers, elastic scenarios, and failover.

Covers the kernel-executed side of the steering subsystem: the
compute-or-load transfer path through the tiering layer's second tier,
replicas failing (transactional aborts, directory invalidation, orphan
re-routing), draining, and joining mid-trace, plus the telemetry and JSON
export surface.
"""

import json

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    DirectoryRouter,
    PrefixAffinityRouter,
    PrefixDirectory,
    RoundRobinRouter,
    RouteDecision,
    Router,
    ScenarioEvent,
    SplitSpec,
    TransferSpec,
    simulate_cluster,
)
from repro.core.cache import MarconiCache
from repro.engine.latency import LatencyModel
from repro.models.memory import node_state_bytes, transfer_state_bytes
from repro.tiering import TieredMarconiCache
from repro.workloads.lmsys import generate_lmsys_trace
from repro.workloads.trace import Trace, TraceRound, TraceSession

from _drain import assert_drained, expected_rounds, served_rounds


def toks(n, seed):
    return np.random.default_rng(seed).integers(0, 32000, size=n, dtype=np.int32)


def _caches(model, n, seqs=8):
    per_seq = node_state_bytes(model, 2000, True)
    return [MarconiCache(model, seqs * per_seq, alpha=1.0) for _ in range(n)]


def _tiered(model, seqs=8):
    per_seq = node_state_bytes(model, 2000, True)
    return TieredMarconiCache(
        model, seqs * per_seq, secondary_bytes=seqs * per_seq, alpha=1.0
    )





class TestScenarioEvents:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioEvent(1.0, "explode", replica=0)
        with pytest.raises(ValueError):
            ScenarioEvent(1.0, "fail")  # needs a replica
        with pytest.raises(ValueError):
            ScenarioEvent(1.0, "join")  # needs a cache_factory
        with pytest.raises(ValueError):
            ScenarioEvent(-1.0, "drain", replica=0)

    def test_to_dict(self):
        def spawn():
            return None

        event = ScenarioEvent(2.0, "join", cache_factory=spawn, name="spare")
        d = event.to_dict()
        assert d["action"] == "join" and d["cache_factory"] == "spawn"
        assert ScenarioEvent(1.0, "fail", replica=2).to_dict()["replica"] == 2

    def test_transfer_spec_validation(self):
        with pytest.raises(ValueError):
            TransferSpec(source=1, target=1, tokens=toks(5, 1), nbytes=10)
        with pytest.raises(ValueError):
            TransferSpec(source=0, target=1, tokens=toks(5, 1), nbytes=0)
        with pytest.raises(ValueError):
            TransferSpec(source=0, target=1, tokens=toks(0, 1), nbytes=10)


class TestFailover:
    def test_replica_death_reroutes_everything(self, hybrid):
        # A burst-heavy trace so the failure catches requests in every
        # phase: queued, mid-prefill (re-routed), and mid-decode (record
        # kept, session continues).
        trace = generate_lmsys_trace(n_sessions=24, seed=31, session_rate=16.0)
        caches = _caches(hybrid, 3)
        scenario = [ScenarioEvent(1.0, "fail", replica=1)]
        result = simulate_cluster(
            hybrid,
            caches,
            PrefixAffinityRouter(),
            trace,
            scenario=scenario,
        )
        # Every round of every session completed, despite the mid-trace death.
        # ...and exactly once: requests interrupted mid-decode keep their
        # original record instead of being re-served.
        assert result.n_requests == trace.n_requests
        assert result.steering_counter("interrupted_decodes") > 0
        # Orphans were re-routed (each re-admission recounts).
        reroutes = result.steering_counter("reroutes")
        assert reroutes > 0
        assert sum(result.routed_counts) == trace.n_requests + reroutes
        assert result.steering_counter("failures") == 1
        # Zero leaked pins or open sessions anywhere, including the corpse.
        assert_drained(caches, result, trace)
        # Nothing arriving after the failure lands on the dead replica.
        assert all(
            rec.arrival_time <= 1.0 for rec in result.replica_results[1].records
        )

    def test_mid_session_abort_path_is_exercised(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=16, seed=32, session_rate=4.0)
        caches = _caches(hybrid, 2)
        result = simulate_cluster(
            hybrid,
            caches,
            PrefixAffinityRouter(),
            trace,
            scenario=[ScenarioEvent(1.5, "fail", replica=0)],
        )
        assert result.steering_counter("aborted_sessions") > 0
        assert result.n_requests == trace.n_requests
        assert_drained(caches, result, trace)

    def test_rerun_after_failure_revives_replica(self, hybrid):
        """A router reused across runs must re-track replicas a previous
        run's scenario killed, and report per-run decision counters."""
        trace = generate_lmsys_trace(n_sessions=10, seed=39, session_rate=2.0)
        caches = _caches(hybrid, 3)
        # Force directory mode: auto would deep-probe a 3-replica fleet.
        router = PrefixAffinityRouter(directory_factory=PrefixDirectory)
        first = ClusterSimulator(
            hybrid,
            caches,
            router,
            scenario=[ScenarioEvent(1.5, "fail", replica=1)],
        ).run(trace)
        assert first.directory_stats["invalidations"] >= 1
        second = ClusterSimulator(hybrid, caches, router).run(trace)
        # The replica a previous run killed is tracked and routable again.
        assert second.routed_counts[1] > 0
        assert second.directory_stats["invalidations"] == 0
        # Decision counters are per-run: one bump per routed request.
        assert sum(second.router_stats.values()) == trace.n_requests

    def test_content_blind_router_gets_overridden(self, hybrid):
        """Round-robin keeps nominating the corpse; the kernel corrects it."""
        trace = generate_lmsys_trace(n_sessions=12, seed=33, session_rate=2.0)
        caches = _caches(hybrid, 2)
        result = simulate_cluster(
            hybrid,
            caches,
            RoundRobinRouter(),
            trace,
            scenario=[ScenarioEvent(1.0, "fail", replica=0)],
        )
        assert result.steering_counter("overrides") > 0
        assert served_rounds(result) == expected_rounds(trace)
        assert all(
            rec.arrival_time <= 1.0 for rec in result.replica_results[0].records
        )

    def test_dead_replica_releases_executor_slots(self, hybrid):
        """Telemetry of the corpse drops to zero occupancy at failure
        instead of freezing at its at-failure value."""
        trace = generate_lmsys_trace(n_sessions=24, seed=31, session_rate=16.0)
        result = simulate_cluster(
            hybrid,
            _caches(hybrid, 3),
            PrefixAffinityRouter(),
            trace,
            scenario=[ScenarioEvent(1.0, "fail", replica=1)],
        )
        dead = result.replica_results[1]
        assert dead.running_series[-1][1] == 0
        # Occupancy after the failure instant stays zero.
        assert all(value == 0 for t, value in dead.running_series if t > 1.0)

    def test_interrupted_decode_next_round_waits_for_decode_end(self, hybrid):
        """A failure mid-decode must not let the session 'respond' before
        the decode could have finished: the next round fires off the
        decode's true completion time, not the failure instant."""
        from repro.workloads.trace import Trace, TraceRound, TraceSession

        rng = np.random.default_rng(77)
        rounds = [
            TraceRound(
                rng.integers(0, 32000, 100).astype(np.int32),
                rng.integers(0, 32000, 200).astype(np.int32),  # 2 s decode
            ),
            TraceRound(
                rng.integers(0, 32000, 50).astype(np.int32),
                rng.integers(0, 32000, 10).astype(np.int32),
            ),
        ]
        trace = Trace(
            name="one-session",
            seed=77,
            sessions=[
                TraceSession(
                    session_id=0,
                    arrival_time=0.0,
                    rounds=rounds,
                    think_times=[0.0, 1.0],
                )
            ],
        )
        result = simulate_cluster(
            hybrid,
            _caches(hybrid, 2),
            PrefixAffinityRouter(),
            trace,
            scenario=[ScenarioEvent(1.0, "fail", replica=0)],  # mid-decode
        )
        assert result.steering_counter("interrupted_decodes") == 1
        records = sorted(
            (rec for rep in result.replica_results for rec in rep.records),
            key=lambda rec: rec.round_index,
        )
        assert len(records) == 2
        first, second = records
        decode_end = first.service_start + first.prefill_seconds + 200 * 0.010
        assert decode_end > 1.0  # the failure really interrupted the decode
        assert second.arrival_time == pytest.approx(decode_end + 1.0)

    def test_scenario_replica_out_of_range_raises(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=4, seed=30)
        with pytest.raises(ValueError, match="names replica"):
            simulate_cluster(
                hybrid,
                _caches(hybrid, 2),
                PrefixAffinityRouter(),
                trace,
                scenario=[ScenarioEvent(0.5, "fail", replica=5)],
            )
        with pytest.raises(ValueError):
            ScenarioEvent(0.5, "fail", replica=-1)

    def test_all_replicas_dead_raises(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=4, seed=34)
        with pytest.raises(RuntimeError):
            simulate_cluster(
                hybrid,
                _caches(hybrid, 1),
                RoundRobinRouter(),
                trace,
                scenario=[ScenarioEvent(0.5, "fail", replica=0)],
            )

    def test_directory_invalidated_on_failure(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=10, seed=35, session_rate=2.0)
        caches = _caches(hybrid, 2)
        # Force directory mode: auto would deep-probe a 2-replica fleet.
        router = PrefixAffinityRouter(directory_factory=PrefixDirectory)
        result = simulate_cluster(
            hybrid,
            caches,
            router,
            trace,
            scenario=[ScenarioEvent(2.0, "fail", replica=0)],
        )
        assert result.directory_stats is not None
        assert result.directory_stats["invalidations"] >= 1
        # Run-end teardown: the directory detached from every cache, so
        # standalone use of these caches pays no observer maintenance.
        assert router.directory is None
        for cache in caches:
            assert not cache._external_tree_observers


class TestDrainAndJoin:
    def test_drained_replica_takes_no_new_arrivals(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=14, seed=36, session_rate=2.0)
        caches = _caches(hybrid, 3)
        result = simulate_cluster(
            hybrid,
            caches,
            PrefixAffinityRouter(),
            trace,
            scenario=[ScenarioEvent(2.0, "drain", replica=2)],
        )
        assert result.steering_counter("drains") == 1
        assert all(
            rec.arrival_time <= 2.0 for rec in result.replica_results[2].records
        )
        assert_drained(caches, result, trace)

    def test_join_adds_capacity_mid_trace(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=20, seed=37, session_rate=4.0)
        caches = _caches(hybrid, 2)
        spare = _caches(hybrid, 1)[0]
        result = simulate_cluster(
            hybrid,
            caches,
            PrefixAffinityRouter(),
            trace,
            scenario=[ScenarioEvent(1.0, "join", cache_factory=lambda: spare)],
        )
        assert result.n_replicas == 3
        assert result.steering_counter("joins") == 1
        assert result.routed_counts[2] > 0  # the newcomer pulled traffic
        assert_drained(caches + [spare], result, trace)

    def test_failover_then_join_recovers(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=16, seed=38, session_rate=2.0)
        caches = _caches(hybrid, 2)
        result = simulate_cluster(
            hybrid,
            caches,
            PrefixAffinityRouter(),
            trace,
            scenario=[
                ScenarioEvent(1.5, "fail", replica=0),
                ScenarioEvent(2.5, "join", cache_factory=lambda: _caches(hybrid, 1)[0]),
            ],
        )
        assert result.n_replicas == 3
        assert result.routed_counts[2] > 0
        assert served_rounds(result) == expected_rounds(trace)


class TestShardedScenarioEdges:
    """Elastic scenarios against a sharded, delayed directory view: joins
    land while updates are still in flight, drains overlap pending
    invalidations, and the serving path absorbs the staleness."""

    def _backend(self, **kwargs):
        from repro.cluster import ShardedPrefixDirectory

        defaults = dict(
            n_shards=3, region_tokens=8, propagation_delay=0.2, gossip_interval=0.1
        )
        defaults.update(kwargs)
        return ShardedPrefixDirectory(**defaults)

    def test_join_while_updates_in_flight(self, hybrid):
        backend = self._backend()
        trace = generate_lmsys_trace(n_sessions=16, seed=64, session_rate=4.0)
        caches = _caches(hybrid, 2)
        spare = _caches(hybrid, 1)[0]
        result = simulate_cluster(
            hybrid,
            caches,
            PrefixAffinityRouter(directory=backend),
            trace,
            # Joins right as the first arrivals' gossip is still queued.
            scenario=[ScenarioEvent(0.3, "join", cache_factory=lambda: spare)],
        )
        assert result.n_replicas == 3
        assert result.steering_counter("joins") == 1
        assert result.routed_counts[2] > 0
        assert_drained(caches + [spare], result, trace)
        # The joiner is tracked by the shared sharded view.
        assert backend.replicas == (0, 1, 2)
        backend.pump(upto=1e9)
        backend.check_integrity()
        backend.close()

    def test_drain_with_pending_invalidations(self, hybrid):
        """A replica fails (its invalidation gossips slowly) and another
        drains while that invalidation is still pending: every round is
        still served, and the dead replica's entries eventually vanish
        from every shard."""
        backend = self._backend(propagation_delay=0.6, gossip_interval=0.3)
        trace = generate_lmsys_trace(n_sessions=16, seed=65, session_rate=4.0)
        caches = _caches(hybrid, 3)
        result = simulate_cluster(
            hybrid,
            caches,
            PrefixAffinityRouter(directory=backend),
            trace,
            scenario=[
                ScenarioEvent(2.0, "fail", replica=0),
                ScenarioEvent(2.3, "drain", replica=1),  # inside the window
            ],
        )
        assert result.steering_counter("failures") == 1
        assert result.steering_counter("drains") == 1
        assert_drained(caches, result, trace)
        assert result.directory_staleness["invalidations"] >= 1
        backend.pump(upto=1e9)
        for shard in backend.shards:
            for node in shard.directory.iter_nodes():
                assert 0 not in node.cover and 0 not in node.ckpt
        backend.check_integrity()
        backend.close()

    def test_sharded_staleness_exported_with_cluster_result(self, hybrid):
        from repro.metrics.export import directory_staleness_summary

        backend = self._backend()
        trace = generate_lmsys_trace(n_sessions=8, seed=66, session_rate=2.0)
        result = simulate_cluster(
            hybrid, _caches(hybrid, 2), PrefixAffinityRouter(directory=backend), trace
        )
        d = result.to_dict()
        assert d["directory"]["backend"] == "sharded"
        assert len(d["directory"]["per_shard"]) == 3
        json.dumps(d)  # staleness telemetry must be JSON-clean
        summary = directory_staleness_summary(result)
        assert summary["backend"] == "sharded"
        assert summary["n_shards"] == 3
        assert len(summary["shard_applied_updates"]) == 3
        assert "lookup_age_p95" in summary
        backend.close()


class TestTransfers:
    def _prepared_router(self, model, caches, **kwargs):
        router = DirectoryRouter(**kwargs)
        router.prepare(model, caches, LatencyModel())
        return router

    def _warm(self, cache, n_tokens, seed, now=0.0):
        seq = toks(n_tokens, seed)
        with cache.begin(seq, now) as session:
            full = np.concatenate([seq, toks(20, seed + 1)])
            session.commit(full, now + 0.5)
        return full

    def test_compute_or_load_plans_transfer_for_long_span(self, hybrid):
        caches = [_tiered(hybrid), _tiered(hybrid)]
        full = self._warm(caches[0], 1800, 41)
        router = self._prepared_router(hybrid, caches, max_imbalance=2)
        query = np.concatenate([full, toks(30, 43)])
        # Replica 0 owns the prefix but is overloaded: spill to 1 + load.
        decision = router.decide(query, 7, caches, [10, 0], 1.0)
        assert decision.replica == 1
        assert decision.transfer is not None
        assert decision.transfer.source == 0 and decision.transfer.target == 1
        assert len(decision.transfer.tokens) == len(full)
        assert router.decision_stats.get("chose_load", 0) == 1

    def test_short_span_recomputes(self, hybrid):
        caches = [_tiered(hybrid), _tiered(hybrid)]
        full = self._warm(caches[0], 100, 44)
        router = self._prepared_router(
            hybrid, caches, max_imbalance=2, transfer_min_tokens=500
        )
        query = np.concatenate([full, toks(10, 45)])
        decision = router.decide(query, 7, caches, [10, 0], 1.0)
        assert decision.replica == 1 and decision.transfer is None

    def test_slow_link_recomputes(self, hybrid):
        caches = [_tiered(hybrid), _tiered(hybrid)]
        full = self._warm(caches[0], 1800, 46)
        router = DirectoryRouter(max_imbalance=2, transfer_min_tokens=16)
        # A dial-up interconnect: loading can never beat recompute.
        router.prepare(
            hybrid, caches, LatencyModel(transfer_bandwidth_bytes_per_s=1e4)
        )
        query = np.concatenate([full, toks(30, 47)])
        decision = router.decide(query, 7, caches, [10, 0], 1.0)
        assert decision.transfer is None
        assert router.decision_stats.get("chose_recompute", 0) == 1

    def test_plain_cache_target_disables_transfer(self, hybrid):
        caches = _caches(hybrid, 2)  # no second tier to land in
        full = self._warm(caches[0], 1800, 48)
        router = self._prepared_router(hybrid, caches, max_imbalance=2)
        decision = router.decide(
            np.concatenate([full, toks(30, 49)]), 7, caches, [10, 0], 1.0
        )
        assert decision.transfer is None

    def test_drain_triggers_transfers_end_to_end(self, hybrid):
        """Draining a replica migrates its sessions' hot state: later rounds
        land elsewhere, fetch the span over the link, and hit."""
        trace = generate_lmsys_trace(n_sessions=10, seed=51, session_rate=1.0)
        caches = [_tiered(hybrid), _tiered(hybrid)]
        router = DirectoryRouter(transfer_min_tokens=16)
        result = simulate_cluster(
            hybrid,
            caches,
            router,
            trace,
            scenario=[ScenarioEvent(4.0, "drain", replica=0)],
        )
        assert result.steering_counter("transfers_planned") > 0
        assert result.steering_counter("transfers_completed") > 0
        assert result.total_transfer_bytes > 0
        assert result.steering is not None
        assert sum(result.steering.transfers_in) == result.steering_counter(
            "transfers_completed"
        )
        # The copied state was actually promoted and served on arrival.
        promoted = sum(
            cache.stats.extra.get("promotions", 0) for cache in caches
        )
        assert promoted > 0
        assert_drained(caches, result, trace)

    def test_transfer_to_dead_target_is_dropped_and_rerouted(self, hybrid):
        """A transfer in flight when its target dies must not strand the
        parked request."""
        trace = generate_lmsys_trace(n_sessions=10, seed=52, session_rate=1.0)
        caches = [_tiered(hybrid), _tiered(hybrid), _tiered(hybrid)]
        result = simulate_cluster(
            hybrid,
            caches,
            DirectoryRouter(transfer_min_tokens=16),
            trace,
            scenario=[
                ScenarioEvent(4.0, "drain", replica=0),
                ScenarioEvent(4.5, "fail", replica=1),
            ],
        )
        assert_drained(caches, result, trace)

    @pytest.mark.parametrize("action", ["fail", "drain"])
    @pytest.mark.parametrize("split", [False, True], ids=["parked", "split"])
    def test_landing_on_a_target_that_stopped_routing(self, hybrid, split, action):
        """The landing body's four corners: a transfer to replica 1 is in
        flight (t=1s..2s) when replica 1 fails or drains (t=1.5s).  A parked
        request is dropped and re-admitted either way; a split request was
        never parked, so a draining target still gets its head bytes and
        only a dead one drops them."""
        caches = [_tiered(hybrid) for _ in range(3)]
        head = self._warm(caches[0], 1800, 45)
        query = np.concatenate([head, toks(30, 47)])
        nbytes = transfer_state_bytes(hybrid, len(head))
        common = dict(source=0, target=1, tokens=head, nbytes=nbytes)
        if split:
            spec = SplitSpec(**common, split_depth=len(head), total_len=len(query))
        else:
            spec = TransferSpec(**common)

        class SteerOnce(Router):
            """Plans ``spec`` for the first arrival, replica 2 afterwards."""

            name = "steer_once"
            planned = False

            def route(self, tokens, session_id, caches, loads, now):
                return 2

            def decide(self, tokens, session_id, caches, loads, now):
                if self.planned:
                    return RouteDecision(2)
                self.planned = True
                return RouteDecision(1, spec)

        trace = Trace(
            name="landing",
            seed=0,
            sessions=[TraceSession(0, 1.0, [TraceRound(query, toks(8, 48))], [0.0])],
        )
        result = simulate_cluster(
            hybrid,
            caches,
            SteerOnce(),
            trace,
            latency=LatencyModel(
                transfer_bandwidth_bytes_per_s=float(nbytes), transfer_latency_s=0.0
            ),
            scenario=[ScenarioEvent(1.5, action, replica=1)],
        )
        landed = split and action == "drain"
        assert result.steering_counter("transfers_planned") == 1
        assert result.steering_counter("transfers_dropped") == (0 if landed else 1)
        assert result.steering_counter("transfers_completed") == (1 if landed else 0)
        assert result.steering.transfer_bytes_in[1] == (nbytes if landed else 0)
        # Served exactly once; a parked request only ever runs where the
        # re-admission put it.
        assert served_rounds(result) == {(0, 0)}
        assert result.n_requests == 1
        if not split:
            assert result.replica_results[2].n_requests == 1
            assert result.routed_counts == [0, 0, 1]
        assert_drained(caches)

    def test_transfer_free_run_matches_prefix_affinity(self, hybrid):
        """With transfers disabled, the steering router is routing-identical
        to directory-mode prefix affinity."""
        trace = generate_lmsys_trace(n_sessions=12, seed=53)
        a = simulate_cluster(
            hybrid, _caches(hybrid, 3), DirectoryRouter(transfer=False), trace
        )
        b = simulate_cluster(
            hybrid, _caches(hybrid, 3), PrefixAffinityRouter(), trace
        )
        assert a.routed_counts == b.routed_counts
        assert a.token_hit_rate == pytest.approx(b.token_hit_rate)


class TestSplitSteering:
    """Compute-or-load-or-both: interior split points and the overlap of
    head transfer with tail recompute (steering v2)."""

    def _warm_with_interior_checkpoints(self, hybrid):
        """Two chained rounds on replica 0 lay checkpoints at ~1020 and
        ~1840 tokens: the shallower one is the interior split candidate."""
        caches = [_tiered(hybrid, seqs=16), _tiered(hybrid, seqs=16)]
        seq = toks(1000, 71)
        with caches[0].begin(seq, 0.0) as session:
            full = np.concatenate([seq, toks(20, 72)])
            session.commit(full, 0.5)
        ext = np.concatenate([full, toks(800, 73)])
        with caches[0].begin(ext, 1.0) as session:
            full = np.concatenate([ext, toks(20, 74)])
            session.commit(full, 1.5)
        return caches, full

    def test_split_spec_validation(self, hybrid):
        from repro.cluster import SplitSpec

        good = dict(source=0, target=1, tokens=toks(5, 1), nbytes=10)
        SplitSpec(**good, split_depth=5, total_len=8)
        with pytest.raises(ValueError):  # depth must cover the shipped tokens
            SplitSpec(**good, split_depth=4, total_len=8)
        with pytest.raises(ValueError):  # interior means depth < total
            SplitSpec(**good, split_depth=5, total_len=5)

    def test_router_plans_interior_split(self, hybrid):
        """At a mid-range bandwidth the overlapped interior candidate beats
        both endpoints, so the router emits a SplitSpec, not all-or-nothing."""
        from repro.cluster import SplitSpec

        caches, full = self._warm_with_interior_checkpoints(hybrid)
        router = DirectoryRouter(max_imbalance=2, transfer_min_tokens=16)
        router.prepare(
            hybrid, caches, LatencyModel(transfer_bandwidth_bytes_per_s=1e9)
        )
        query = np.concatenate([full, toks(600, 75)])
        decision = router.decide(query, 7, caches, [10, 0], 2.0)
        assert decision.replica == 1
        spec = decision.transfer
        assert isinstance(spec, SplitSpec)
        assert 0 < spec.split_depth < len(query)
        assert spec.total_len == len(query)
        assert len(spec.tokens) == spec.split_depth
        assert spec.tail_flops > 0 and spec.head_flops > 0
        assert router.decision_stats.get("chose_split", 0) == 1
        # Splitting disabled: the same opportunity degenerates to PR-4.
        legacy = DirectoryRouter(split=False, max_imbalance=2, transfer_min_tokens=16)
        legacy.prepare(
            hybrid, caches, LatencyModel(transfer_bandwidth_bytes_per_s=1e9)
        )
        ldec = legacy.decide(query, 7, caches, [10, 0], 2.0)
        assert ldec.transfer is None or not isinstance(ldec.transfer, SplitSpec)

    def _run_split_probe(self, hybrid):
        from repro.experiments.steering_sweep import split_probe_trace

        trace = split_probe_trace()
        caches = [
            TieredMarconiCache(hybrid, int(1e12), int(1e12)) for _ in range(2)
        ]
        router = DirectoryRouter(split=True, transfer_min_tokens=16)
        result = simulate_cluster(
            hybrid,
            caches,
            router,
            trace,
            scenario=[ScenarioEvent(10.0, "drain", replica=0)],
            latency=LatencyModel(transfer_bandwidth_bytes_per_s=1e9),
        )
        return trace, caches, router, result

    def test_split_summary_reads_router_decisions(self, hybrid):
        """Regression: the summary exported ``chose_*`` as 0 (it read them
        from the kernel's telemetry; the router counts them).  The router
        decides and the kernel may still drop a stale or infeasible plan,
        never the reverse."""
        from repro.metrics.export import steering_split_summary

        _, _, _, result = self._run_split_probe(hybrid)
        summary = steering_split_summary(result)
        assert summary["chose_split"] >= summary["transfers_split"] >= 1
        assert (
            summary["chose_load"] + summary["chose_split"]
            >= summary["transfers_planned"]
        )

    def test_split_overlap_end_to_end(self, hybrid):
        """A split run must execute the overlap: the request starts its
        tail recompute while the head ships, and telemetry records the
        TTFT seconds the overlap hid."""
        trace, caches, router, result = self._run_split_probe(hybrid)
        assert result.steering_counter("transfers_split") >= 1
        assert result.steering_counter("splits_overlapped") >= 1
        assert result.overlap_seconds_saved > 0
        assert router.decision_stats.get("chose_split", 0) >= 1
        assert_drained(caches, result, trace)

    def test_concurrent_transfers_serialize_on_source_link(self, hybrid):
        """N transfers leaving one source must share its link, not each see
        the full bandwidth: waits accumulate and the conservation audit
        (busy time >= bytes out / bandwidth per link) passes."""
        from repro.workloads.trace import Trace, TraceRound, TraceSession

        rng = np.random.default_rng(76)

        def session(sid):
            rounds = [
                TraceRound(
                    rng.integers(0, 32000, 1200).astype(np.int32),
                    rng.integers(0, 32000, 8).astype(np.int32),
                ),
                TraceRound(
                    rng.integers(0, 32000, 30).astype(np.int32),
                    rng.integers(0, 32000, 8).astype(np.int32),
                ),
            ]
            # Staggered arrivals + counter-staggered thinks: every round-2
            # request lands at ~5.19s, slamming the drained source's link.
            return TraceSession(sid, 0.05 * sid, rounds, [0.0, 5.0 - 0.05 * sid])

        trace = Trace(
            name="link-contention",
            seed=76,
            sessions=[session(i) for i in range(12)],
        )
        caches = [
            TieredMarconiCache(hybrid, int(1e12), int(1e12)) for _ in range(2)
        ]
        bandwidth = 2e9
        result = simulate_cluster(
            hybrid,
            caches,
            DirectoryRouter(transfer_min_tokens=16),
            trace,
            scenario=[ScenarioEvent(2.0, "drain", replica=0)],
            latency=LatencyModel(transfer_bandwidth_bytes_per_s=bandwidth),
        )
        steering = result.steering
        assert result.steering_counter("transfers_completed") >= 2
        # Round-2 arrivals land within a few ms of each other while each
        # state blob takes ~56ms on the shared link: most of them queue.
        assert steering.link_wait_seconds > 0
        assert sum(steering.link_busy_seconds) > 0
        steering.check_conservation(bandwidth)  # must not raise
        assert_drained(caches, result, trace)


class TestClusterExport:
    def test_to_dict_shape(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=8, seed=54)
        result = simulate_cluster(
            hybrid,
            [_tiered(hybrid), _tiered(hybrid)],
            DirectoryRouter(),
            trace,
            scenario=[ScenarioEvent(3.0, "drain", replica=0)],
        )
        d = result.to_dict()
        assert d["router"] == "directory"
        assert d["n_replicas"] == 2
        assert len(d["replicas"]) == 2
        assert "steering" in d and "counters" in d["steering"]
        assert "directory" in d
        assert d["scenario"][0]["action"] == "drain"
        json.dumps(d)  # must be JSON-serializable as-is

    def test_json_roundtrip(self, hybrid):
        trace = generate_lmsys_trace(n_sessions=6, seed=55)
        result = simulate_cluster(
            hybrid, _caches(hybrid, 2), PrefixAffinityRouter(), trace
        )
        loaded = json.loads(json.dumps(result.to_dict()))
        assert loaded["n_requests"] == result.n_requests
        assert loaded["token_hit_rate"] == pytest.approx(result.token_hit_rate)
        assert sum(loaded["routed_counts"]) == result.n_requests
        assert sum(r["n_requests"] for r in loaded["replicas"]) == result.n_requests
        assert loaded["mean_executor_utilization"] == pytest.approx(
            np.mean([r.executor_utilization() for r in result.replica_results])
        )
        assert 0.0 <= loaded["mean_executor_utilization"] <= 1.0

    def test_split_summary_without_steering_is_all_zero(self):
        """A run with no steering telemetry still exports the full shape."""
        from types import SimpleNamespace

        from repro.metrics.export import steering_split_summary

        summary = steering_split_summary(
            SimpleNamespace(router_stats={"chose_load": 2}, steering=None)
        )
        assert summary["chose_load"] == 2
        assert summary["chose_recompute"] == summary["chose_split"] == 0
        assert summary["transfers_planned"] == summary["splits_hidden"] == 0
        assert summary["overlap_seconds_saved"] == 0.0
        assert summary["total_transfer_bytes"] == 0

    def test_staleness_summary_of_a_plain_snapshot(self):
        """A bare staleness dict passes through: known scalars kept, the
        per-shard breakdown folded to (applied, pending) lists."""
        from repro.metrics.export import directory_staleness_summary

        snapshot = {
            "backend": "sharded",
            "n_shards": 2,
            "lookups": 7,
            "unlisted": "dropped",
            "per_shard": [
                {"applied_updates": 3, "pending_updates": 0, "other": 1},
                {"applied_updates": 5, "pending_updates": 2, "other": 1},
            ],
        }
        summary = directory_staleness_summary(snapshot)
        assert summary == {
            "backend": "sharded",
            "n_shards": 2,
            "lookups": 7,
            "shard_applied_updates": [3, 5],
            "shard_pending_updates": [0, 2],
        }
        assert directory_staleness_summary({}) == {}

    def test_scenario_without_router_rejected(self, hybrid):
        from repro.engine.kernel import SimulationKernel

        with pytest.raises(ValueError):
            SimulationKernel(
                hybrid,
                _caches(hybrid, 1),
                scenario=[ScenarioEvent(1.0, "drain", replica=0)],
            )
