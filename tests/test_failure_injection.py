"""Adversarial and edge-case streams aimed at breaking cache mechanics,
plus directory-shard fault injection under full cluster runs."""

import numpy as np
import pytest

from repro.cluster import (
    NoRoutableReplicaError,
    PrefixAffinityRouter,
    ShardedPrefixDirectory,
    simulate_cluster,
)
from repro.engine.steering import pick_least_loaded
from repro.core.cache import MarconiCache
from repro.models.memory import (
    kv_bytes_per_token,
    model_recurrent_bytes,
    node_state_bytes,
)
from repro.tiering import TieredMarconiCache
from repro.workloads import generate_trace

from _drain import assert_drained


def toks(n, seed):
    return np.random.default_rng(seed).integers(0, 32000, size=n, dtype=np.int32)


class TestInterleavedInFlight:
    def test_out_of_order_admits(self, hybrid):
        """begin A, begin B, commit B, commit A — pins must balance."""
        cache = MarconiCache(hybrid, int(1e12), alpha=0.0)
        a, b = toks(100, 1), toks(100, 2)
        sa = cache.begin(a, 0.0)
        sb = cache.begin(b, 0.1)
        sb.commit(np.concatenate([b, toks(10, 3)]), 1.0)
        sa.commit(np.concatenate([a, toks(10, 4)]), 1.1)
        assert_drained([cache])

    def test_identical_concurrent_lookups(self, hybrid):
        """Two in-flight requests with byte-identical inputs."""
        cache = MarconiCache(hybrid, int(1e12), alpha=0.0)
        seq = toks(200, 5)
        s1 = cache.begin(seq, 0.0)
        s2 = cache.begin(seq, 0.1)
        assert s1.hit_tokens == s2.hit_tokens == 0
        s1.commit(np.concatenate([seq, toks(10, 6)]), 1.0)
        s2.commit(np.concatenate([seq, toks(12, 7)]), 1.1)
        assert_drained([cache])

    def test_many_concurrent_same_session(self, hybrid):
        """A pile-up of in-flight requests sharing one conversation."""
        cache = MarconiCache(hybrid, int(1e12), alpha=0.0)
        base = toks(100, 8)
        sessions = []
        for i in range(8):
            seq = np.concatenate([base, toks(5 + i, 9 + i)])
            sessions.append((seq, cache.begin(seq, float(i))))
        for i, (seq, session) in enumerate(reversed(sessions)):
            session.commit(np.concatenate([seq, toks(3, 50 + i)]), 10.0 + i)
        assert_drained([cache])


class TestAdversarialStreams:
    def test_near_miss_last_token(self, hybrid):
        """Sequences identical except the final token: hits must stop at
        the shared part, never cover the divergent tail."""
        cache = MarconiCache(hybrid, int(1e12), alpha=0.0)
        base = toks(300, 11)
        variant_a = np.concatenate([base, [7]]).astype(np.int32)
        variant_b = np.concatenate([base, [8]]).astype(np.int32)
        sa = cache.begin(variant_a, 0.0)
        sa.commit(np.concatenate([variant_a, toks(10, 12)]), 0.5)
        sb = cache.begin(variant_b, 1.0)
        assert sb.hit_tokens == 0  # branch checkpoint at 300 created only now
        sb.commit(np.concatenate([variant_b, toks(10, 13)]), 1.5)
        sc = cache.begin(np.concatenate([base, [9]]).astype(np.int32), 2.0)
        assert sc.hit_tokens == len(base)  # third occurrence benefits
        sc.commit(np.concatenate([base, [9], toks(5, 14)]).astype(np.int32), 2.5)

    def test_all_identical_requests(self, hybrid):
        """The self-consistency pathology: one prompt repeated many times.

        A recurrent checkpoint can only serve a *strictly longer* input
        (the final input token must always be prefilled to produce the
        first decode step's logits), and the branch point of identical
        prompts sits exactly at the input boundary — so hybrid hits stay
        at zero no matter how often the prompt repeats.  This is the "all
        or nothing" property at its sharpest; block-grained checkpointing
        (vLLM+) does serve these, at its usual memory cost.
        """
        cache = MarconiCache(hybrid, int(1e12), alpha=0.0)
        prompt = toks(500, 15)
        hits = []
        for i in range(5):
            s = cache.begin(prompt, float(i))
            hits.append(s.hit_tokens)
            s.commit(np.concatenate([prompt, toks(20, 100 + i)]), i + 0.5)
        assert all(h == 0 for h in hits)
        # But any *extension* of the prompt hits the conversation-end
        # checkpoints immediately.
        extended = np.concatenate([prompt, toks(20, 100), toks(4, 999)])
        s = cache.begin(extended, 10.0)
        assert s.hit_tokens == len(prompt) + 20
        s.commit(np.concatenate([extended, [3]]).astype(np.int32), 10.5)
        cache.check_integrity()

    def test_single_token_vocabulary(self, hybrid):
        """All sequences are prefixes of one another (maximal nesting)."""
        cache = MarconiCache(hybrid, int(1e12), alpha=0.0)
        for i in range(1, 12):
            seq = np.ones(i * 7, dtype=np.int32)
            s = cache.begin(seq, float(i))
            s.commit(np.ones(i * 7 + 3, dtype=np.int32), i + 0.5)
        cache.check_integrity()
        # Deep nesting: last lookup should hit a prior checkpoint.
        s = cache.begin(np.ones(80, dtype=np.int32), 100.0)
        assert s.hit_tokens > 0
        s.commit(np.ones(81, dtype=np.int32), 100.5)

    def test_alternating_long_short(self, hybrid):
        """Length oscillation under contention: eviction must keep making
        progress in both directions."""
        per_seq = node_state_bytes(hybrid, 2000, True)
        cache = MarconiCache(hybrid, 2 * per_seq, alpha=1.0)
        for i in range(12):
            n = 1800 if i % 2 == 0 else 50
            seq = toks(n, 200 + i)
            s = cache.begin(seq, float(i))
            s.commit(np.concatenate([seq, toks(10, 300 + i)]), i + 0.5)
        cache.check_integrity()


class TestCapacityEdges:
    def test_capacity_of_exactly_one_entry(self, hybrid):
        seq_len, out_len = 400, 50
        exact = (
            (seq_len + out_len) * kv_bytes_per_token(hybrid)
            + model_recurrent_bytes(hybrid)
        )
        cache = MarconiCache(hybrid, exact, alpha=0.0)
        seq = toks(seq_len, 21)
        s = cache.begin(seq, 0.0)
        full = np.concatenate([seq, toks(out_len, 22)])
        result = s.commit(full, 0.5)
        assert not result.rejected
        assert cache.used_bytes == exact
        # A followup hits the cached conversation end.
        s2 = cache.begin(np.concatenate([full, toks(5, 23)]), 1.0)
        assert s2.hit_tokens == len(full)
        s2.commit(np.concatenate([full, toks(5, 23), [1]]).astype(np.int32), 1.5)

    def test_one_byte_cache_serves_without_caching(self, hybrid):
        cache = MarconiCache(hybrid, 1, alpha=0.0)
        for i in range(4):
            seq = toks(50, 30 + i)
            s = cache.begin(seq, float(i))
            assert s.hit_tokens == 0
            s.commit(np.concatenate([seq, toks(5, 40 + i)]), i + 0.5)
        assert cache.tree.n_nodes == 0
        cache.check_integrity()

    def test_capacity_below_recurrent_state(self, hybrid):
        """KVs fit but no checkpoint ever can: hybrid hits are impossible,
        and the cache must not thrash or miscount."""
        cache = MarconiCache(hybrid, model_recurrent_bytes(hybrid) - 1, alpha=0.0)
        for i in range(6):
            seq = toks(60, 50 + i)
            s = cache.begin(seq, float(i))
            assert s.hit_tokens == 0
            s.commit(np.concatenate([seq, toks(5, 60 + i)]), i + 0.5)
            cache.check_integrity()
        assert not any(n.has_ssm_state for n in cache.tree.iter_nodes())

    def test_tiered_with_tiny_secondary(self, hybrid):
        """A secondary tier too small for any entry degrades gracefully."""
        per_seq = node_state_bytes(hybrid, 450, True)
        cache = TieredMarconiCache(hybrid, 2 * per_seq, secondary_bytes=10, alpha=0.0)
        for i in range(6):
            seq = toks(400, 70 + i)
            s = cache.begin(seq, float(i))
            s.commit(np.concatenate([seq, toks(50, 80 + i)]), i + 0.5)
        assert cache.secondary.n_entries == 0
        assert cache.stats.extra.get("demotions_rejected", 0) > 0
        cache.check_integrity()


def _fleet(model, n, seqs=8):
    per_seq = node_state_bytes(model, 2000, True)
    return [MarconiCache(model, seqs * per_seq, alpha=1.0) for _ in range(n)]





class _ShardFailingDirectory(ShardedPrefixDirectory):
    """Sharded backend that kills one of its own shards mid-run, by
    scheduling the loss on whatever transport the kernel connects."""

    def __init__(self, *args, fail_at=2.0, fail_index=0, **kwargs):
        super().__init__(*args, **kwargs)
        self._fail_at = fail_at
        self._fail_index = fail_index

    def connect_transport(self, transport):
        super().connect_transport(transport)
        if transport is not None:
            transport.schedule(
                self._fail_at, lambda now: self.fail_shard(self._fail_index)
            )


class TestDirectoryShardFaults:
    """Shard loss and dropped gossip injected into full cluster runs: the
    routing view degrades, the serving path must not."""

    def test_shard_loss_mid_run_serves_every_round(self, hybrid):
        backend = _ShardFailingDirectory(
            n_shards=4,
            region_tokens=8,
            propagation_delay=0.05,
            gossip_interval=0.05,
            fail_at=2.0,
            fail_index=1,
        )
        trace = generate_trace("lmsys", n_sessions=14, seed=61, session_rate=2.0)
        caches = _fleet(hybrid, 3)
        result = simulate_cluster(
            hybrid, caches, PrefixAffinityRouter(directory=backend), trace
        )
        assert result.n_requests == trace.n_requests
        assert_drained(caches, result, trace)
        staleness = result.directory_staleness
        assert staleness["backend"] == "sharded"
        assert staleness["shard_losses"] == 1
        assert staleness["live_shards"] == 3
        backend.pump(upto=1e9)  # drain any tail gossip, then audit
        backend.check_integrity()
        backend.close()

    def test_dropped_gossip_mid_run_serves_every_round(self, hybrid):
        backend = ShardedPrefixDirectory(
            n_shards=3, region_tokens=8, propagation_delay=0.05, gossip_interval=0.05
        )
        backend.drop_gossip(batches=2)  # every shard loses its first flushes
        trace = generate_trace("lmsys", n_sessions=14, seed=62, session_rate=2.0)
        caches = _fleet(hybrid, 3)
        result = simulate_cluster(
            hybrid, caches, PrefixAffinityRouter(directory=backend), trace
        )
        assert_drained(caches, result, trace)
        staleness = result.directory_staleness
        assert staleness["updates_dropped"] > 0
        assert sum(
            entry["dropped_batches"] for entry in staleness["per_shard"]
        ) == 6
        backend.pump(upto=1e9)
        backend.check_integrity()
        backend.close()

    def test_stale_lookups_tolerated_during_replica_failure(self, hybrid):
        """Replica failure with slow gossip: shards answer with the dead
        replica during the staleness window (the kernel's dead-target
        fallback absorbs it), and the invalidation eventually lands."""
        from repro.cluster import ScenarioEvent

        backend = ShardedPrefixDirectory(
            n_shards=2, region_tokens=8, propagation_delay=0.5, gossip_interval=0.25
        )
        trace = generate_trace("lmsys", n_sessions=14, seed=63, session_rate=4.0)
        caches = _fleet(hybrid, 3)
        result = simulate_cluster(
            hybrid,
            caches,
            PrefixAffinityRouter(directory=backend),
            trace,
            scenario=[ScenarioEvent(2.0, "fail", replica=1)],
        )
        assert result.n_requests == trace.n_requests
        assert_drained(caches, result, trace)
        assert result.directory_staleness["invalidations"] >= 1
        # Eventual consistency: once the queues drain, no shard still
        # stores the dead replica.
        backend.pump(upto=1e9)
        probe = np.ones(16, dtype=np.int32)
        assert 1 not in backend.lookup(probe, limit=16).ckpt_depth
        for shard in backend.shards:
            for node in shard.directory.iter_nodes():
                assert 1 not in node.cover and 1 not in node.ckpt
        backend.close()


class TestAllReplicasDown:
    """Exhausting the fleet must fail with a typed, actionable error —
    not a bare ``min()`` ``ValueError`` from an empty candidate list."""

    def test_empty_candidate_set_is_typed(self):
        with pytest.raises(NoRoutableReplicaError, match="empty candidate set"):
            pick_least_loaded([], 0)

    def test_all_replicas_failed_mid_run(self, hybrid):
        from repro.cluster import ScenarioEvent

        trace = generate_trace("lmsys", n_sessions=8, seed=64, session_rate=2.0)
        caches = _fleet(hybrid, 2)
        with pytest.raises(NoRoutableReplicaError) as excinfo:
            simulate_cluster(
                hybrid,
                caches,
                PrefixAffinityRouter(),
                trace,
                scenario=[
                    ScenarioEvent(0.5, "fail", replica=0),
                    ScenarioEvent(0.6, "fail", replica=1),
                ],
            )
        # The message must name the fleet state and a remediation.
        message = str(excinfo.value)
        assert "2 replicas" in message and "2 failed" in message
        assert "join" in message

    def test_last_replica_drained_then_failed(self, hybrid):
        from repro.cluster import ScenarioEvent

        trace = generate_trace("lmsys", n_sessions=8, seed=65, session_rate=2.0)
        with pytest.raises(NoRoutableReplicaError, match="1 failed and 1 draining"):
            simulate_cluster(
                hybrid,
                _fleet(hybrid, 2),
                PrefixAffinityRouter(),
                trace,
                scenario=[
                    ScenarioEvent(0.4, "drain", replica=0),
                    ScenarioEvent(0.6, "fail", replica=1),
                ],
            )


class TestSchedulerFailover:
    """Failover speaks only ``ReplicaScheduler.fail``: a scheduler either
    hands its work back or is refused before the run's first event."""

    def test_scheduler_that_cannot_fail_over_is_refused_up_front(self, hybrid):
        """Regression: a token-batching fleet given a ``fail`` scenario was
        accepted and died mid-run with ``cannot commit a session detached
        by cache.reset()`` — failover knew only the FCFS scheduler's
        attribute names and left the dead replica's decodes running."""
        from repro.cluster import LeastLoadedRouter, ScenarioEvent
        from repro.engine import SimulationKernel, TokenBatchingScheduler

        caches = [MarconiCache(hybrid, int(1e12), alpha=1.0) for _ in range(2)]
        kernel = SimulationKernel(
            hybrid,
            caches,
            router=LeastLoadedRouter(),
            scheduler_factory=lambda kernel, replica: TokenBatchingScheduler(
                kernel, replica, token_budget=512, max_batch=64,
                iteration_overhead_s=0.002,
            ),
            scenario=[ScenarioEvent(2.0, "fail", replica=0)],
        )
        trace = generate_trace("lmsys", n_sessions=20, seed=66, session_rate=2.0)
        with pytest.raises(ValueError, match="TokenBatchingScheduler cannot hand back"):
            kernel.run(trace)
        # Refused before anything ran: no session was ever opened.
        assert all(cache.stats.snapshot()["lookups"] == 0 for cache in caches)


class _LoadAudit:
    """A router in front of a router: at every arrival the load list the
    kernel lends must equal what the parent's ``loads()`` rebuilt per
    request, and must come back from the inner router as it went in."""

    def __init__(self, inner):
        self.inner = inner
        self.kernel = None  # set once the kernel exists
        self.arrivals = 0
        self.seen_dead = 0

    def __getattr__(self, name):  # prepare, directory, on_replica_*, ...
        return getattr(self.inner, name)

    def decide(self, tokens, session_id, caches, loads, now):
        from repro.engine.kernel import DEAD_LOAD

        kernel = self.kernel
        recomputed = [
            (s.queue_depth + s.n_running)
            if kernel.alive[i] and not kernel.draining[i]
            else DEAD_LOAD
            for i, s in enumerate(kernel.schedulers)
        ]
        assert loads is kernel.loads()
        assert loads == recomputed, f"load list drifted at t={now}"
        self.arrivals += 1
        self.seen_dead += DEAD_LOAD in loads
        decision = self.inner.decide(tokens, session_id, caches, loads, now)
        assert loads == recomputed, "the router wrote to the load list it was lent"
        return decision


class TestKernelLoadList:
    """``kernel.loads()`` is one list kept current where a load changes;
    these runs hold it equal to the per-request rebuild it replaced."""

    def audited(self, model, caches, inner, **kwargs):
        from repro.engine import SimulationKernel

        audit = _LoadAudit(inner)
        kernel = SimulationKernel(model, caches, router=audit, **kwargs)
        audit.kernel = kernel
        return kernel, audit

    @pytest.mark.parametrize(
        "router", ["round_robin", "least_loaded", "prefix_affinity", "directory", "hierarchical"]
    )
    def test_equal_to_the_rebuild_through_fail_drain_and_join(self, hybrid, router):
        from repro.cluster import ScenarioEvent, make_router

        trace = generate_trace("lmsys", n_sessions=40, seed=71, session_rate=400.0)
        caches = _fleet(hybrid, 4)
        kernel, audit = self.audited(
            hybrid,
            caches,
            make_router(router),
            scenario=[
                ScenarioEvent(0.05, "fail", replica=1),
                ScenarioEvent(0.1, "drain", replica=2),
                ScenarioEvent(
                    0.2, "join", cache_factory=lambda: _fleet(hybrid, 1)[0]
                ),
            ],
        )
        run = kernel.run(trace)
        assert audit.arrivals >= trace.n_requests and audit.seen_dead > 0
        assert len(kernel.loads()) == 5
        # The failure re-routed queued orphans from inside _fail_replica,
        # every one of them through the audit above.
        assert run.steering.counters["reroutes"] > 0
        assert sum(len(r.records) for r in run.replica_results) == trace.n_requests

    def test_token_batching_fleet_routes_on_a_mid_step_load(self, hybrid):
        """Arrivals tying with a step boundary are admitted from inside the
        open step (``drain_arrivals_upto``): the stepping replica's load
        must be read as the step has left it, not as last sampled."""
        from repro.cluster import LeastLoadedRouter
        from repro.engine import TokenBatchingScheduler
        from repro.workloads.trace import Trace, TraceRound, TraceSession

        sessions = [
            TraceSession(
                session_id=i,
                arrival_time=0.001 * i,
                rounds=[TraceRound(toks(40 + i, 100 + 3 * i + k), toks(1, 7)) for k in range(3)],
                think_times=[0.0, 0.0, 0.0],  # next rounds tie with the boundary
            )
            for i in range(6)
        ]
        caches = [MarconiCache(hybrid, int(1e12), alpha=1.0) for _ in range(3)]
        kernel, audit = self.audited(
            hybrid,
            caches,
            LeastLoadedRouter(),
            scheduler_factory=lambda kernel, replica: TokenBatchingScheduler(
                kernel, replica, token_budget=64, max_batch=8,
                iteration_overhead_s=0.002,
            ),
        )
        run = kernel.run(Trace(name="ties", seed=0, sessions=sessions))
        assert audit.arrivals == 18
        assert sum(len(r.records) for r in run.replica_results) == 18

    def test_a_router_that_writes_to_the_list_is_caught_at_that_request(self, hybrid):
        from repro.cluster import LeastLoadedRouter

        class Scribbler(LeastLoadedRouter):
            def route(self, tokens, session_id, caches, loads, now):
                choice = super().route(tokens, session_id, caches, loads, now)
                loads[choice] += 1  # "I know where it is going"
                return choice

        kernel, _ = self.audited(hybrid, _fleet(hybrid, 2), Scribbler())
        trace = generate_trace("lmsys", n_sessions=4, seed=72, session_rate=2.0)
        with pytest.raises(AssertionError, match="wrote to the load list"):
            kernel.run(trace)


class TestTunerUnderChurn:
    def test_auto_alpha_survives_adversarial_stream(self, hybrid):
        """The bootstrap tuner must complete and adopt some alpha even when
        the stream oscillates between incompatible reuse patterns."""
        per_seq = node_state_bytes(hybrid, 1000, True)
        cache = MarconiCache(hybrid, 3 * per_seq, eviction="flop_aware", alpha=None)
        base = toks(300, 91)
        for i in range(40):
            if i % 3 == 0:
                seq = toks(900, 92 + i)  # fresh long
            elif i % 3 == 1:
                seq = np.concatenate([base, toks(30 + i, 93 + i)])  # shared prefix
            else:
                seq = toks(40, 94 + i)  # fresh short
            s = cache.begin(seq, float(i))
            s.commit(np.concatenate([seq, toks(10, 95 + i)]), i + 0.5)
        assert cache.alpha >= 0.0
        cache.check_integrity()
