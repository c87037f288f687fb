"""Microbenchmark: the sharded directory's lookup floor, the routing
decision's floor, the directory-update depth floor, and the staleness sweep.

Four things the end-to-end benchmark (``bench_e2e/``, one 64-replica
fleet) does not measure:

* a sub-linear floor — one sharded *lookup* must grow less than 3x for
  the 8x fleet growth from 64 to 512 replicas (gated on >= 2 cores): the
  walk returns the path it matched and reads no per-replica entry, even
  of a shared prefix node every replica holds;
* the same for a whole routing decision — ``kernel.loads()`` +
  ``router.decide()`` on a fleet whose prefixes are each held by one
  replica, so what is left to grow with the fleet is the router's and the
  kernel's own per-request work (an identity check of the replica list,
  and a ``min`` over the loads when the preferred replica's load could
  spill);
* a depth floor for directory maintenance — one commit's view callbacks
  (its leaf's mark and checkpoint) on a session 64 rounds deep must cost
  at most twice the same at 8 rounds: an inline op resumes at the replica
  node's own directory node instead of joining the root path and walking
  the index from its root;
* a staleness x gossip-budget sweep measuring how much lookup hit rate a
  delayed, throttled directory view gives up against the synchronous
  oracle.

Sharded-vs-oracle decision identity is
``tests/test_sharded_directory.py::TestShardedProperties``.

Results are written to
``benchmarks/out/BENCH_router.json`` (git-ignored; CI uploads it).
Deliberately fast (seconds); stays in the
default test lane.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from _bench_io import OUT_DIR, write_bench
from repro.cluster import (
    DirectoryRouter,
    ManualGossipTransport,
    PrefixAffinityRouter,
    ShardedPrefixDirectory,
)
from repro.core.cache import MarconiCache
from repro.core.radix_tree import TreeObserver
from repro.engine import ScenarioEvent, SimulationKernel
from repro.models.memory import node_state_bytes
from repro.models.presets import hybrid_7b
from repro.workloads.trace import Trace, TraceRound, TraceSession

BENCH_PATH = OUT_DIR / "BENCH_router.json"

MODEL = hybrid_7b()
SYSTEM_PROMPT_TOKENS = 1000
TEMPLATE_TOKENS = 400
UNIQUE_TOKENS = 500
N_TEMPLATES = 4
REPEATS = 3
# Lookup passes per fleet (tens of milliseconds each; see the fixture).
LOOKUP_ROUNDS = 7

# Fleet-scale (sharded backend) settings: few conversations per replica
# and a capped query sample keep the bench in seconds at 512 replicas.
SHARDED_FLEET_SIZES = (64, 256, 512)
BIG_FLEET_CONVERSATIONS = 2
BIG_FLEET_QUERY_CAP = 192
N_SHARDS = 8
REGION_TOKENS = 32
# The sub-linear floor: one sharded lookup at 512 replicas must cost
# strictly less than this multiple of the 64-replica cost.  A shared system
# prompt is held by every replica, and the walk used to pass over each
# node's per-replica maps (4.0-5.7x for 8x the replicas, bound 8x); it now
# keeps only the path it walked and builds no per-replica map, so its cost
# follows the query's depth: 1.1x measured (5.4 / 5.8 us), parent 5.3x.
LOOKUP_GROWTH_BOUND_64_TO_512 = 3.0
# The routing floor: ``kernel.loads()`` + ``router.decide()`` at 512
# replicas against 64, on a fleet with no shared prompt (a query's holders
# do not grow with the fleet).  Rebuilding the load list, a dense hit list
# and a Python-keyed arg-max per request read 6.1x; without them, 2.5-2.6x;
# with the lookup returning its path and ``_bind`` an identity check,
# 1.2-1.3x (11 / 14 us; 2.7x before it on the same host).  The bound leaves
# room for a busy host, not for a per-replica pass coming back.
ROUTE_GROWTH_BOUND_64_TO_512 = 2.0
ROUTE_ROUNDS = 7
# The directory-update floor: a commit's view callbacks (one mark, one
# checkpoint) on a session UPDATE_DEPTHS[1] rounds deep against one
# UPDATE_DEPTHS[0] rounds deep.  A path-carrying op joins the leaf's root
# path and walks the owner's index from its root, both O(session depth):
# 5.0-5.3x (~27 / ~140 us) before ops resumed, 1.0x (~6 / ~6 us) after.
UPDATE_DEPTHS = (8, 64)
UPDATE_ROUND_TOKENS = 50
UPDATE_COMMITS = 200
UPDATE_ROUNDS = 7
UPDATE_GROWTH_BOUND = 2.0
# The callbacks a directory's view registers (as bench_e2e/tracing.py wraps them).
_VIEW_CALLBACKS = (
    "on_node_added",
    "on_edge_split",
    "on_leaf_removed",
    "on_merged",
    "on_leaf_truncated",
    "on_checkpoint_changed",
    "on_tree_attached",
)

# Staleness sweep: 8 replicas under a hand-cranked gossip transport.
# Queries revisit conversations at ages 1..4 time units, so each delay
# value wipes out a different share of the lookups (a graded curve, not
# an all-or-nothing cliff).
STALENESS_DELAYS = (0.0, 1.5, 3.0)
STALENESS_BUDGETS = (None, 4)
STALENESS_REPLICAS = 8
STALENESS_QUERY_AGES = 4


def _toks(rng, n):
    return rng.integers(0, 32000, size=n, dtype=np.int32)


def _build_fleet(
    n_replicas: int, conversations: int, query_cap: int, shared_prompt: bool = True
):
    """A fleet in the steady state prefix caching creates: every replica's
    tree shares the deployment's system prompt and few-shot templates, and
    each replica additionally holds its own conversations underneath.
    Queries extend the conversations, plus a sprinkle of cold requests.
    Without ``shared_prompt`` every replica draws a prompt of its own, so
    no prefix has more than one holder."""
    rng = np.random.default_rng(1000 + n_replicas)
    capacity = 4 * conversations * node_state_bytes(MODEL, 2600, True)
    caches = [MarconiCache(MODEL, capacity, alpha=1.0) for _ in range(n_replicas)]

    def draw_templates():
        prompt = _toks(rng, SYSTEM_PROMPT_TOKENS)
        return prompt, [
            np.concatenate([prompt, _toks(rng, TEMPLATE_TOKENS)])
            for _ in range(N_TEMPLATES)
        ]

    prompt, templates = draw_templates()
    queries = []
    now = 0.0
    for cache in caches:
        if not shared_prompt:
            prompt, templates = draw_templates()
        for conv in range(conversations):
            template = templates[conv % N_TEMPLATES]
            seq = np.concatenate([template, _toks(rng, UNIQUE_TOKENS)])
            with cache.begin(seq, now) as session:
                full = np.concatenate([seq, _toks(rng, 40)])
                session.commit(full, now + 0.5)
            queries.append(np.concatenate([full, _toks(rng, 30)]))
            now += 1.0
    for _ in range(max(4, n_replicas // 4)):
        # Cold requests still share the system prompt (every real request
        # does), where there is one.
        head = prompt if shared_prompt else _toks(rng, SYSTEM_PROMPT_TOKENS)
        queries.append(np.concatenate([head, _toks(rng, UNIQUE_TOKENS)]))
    queries = [queries[i] for i in rng.permutation(len(queries))[:query_cap]]
    loads = [int(load) for load in rng.integers(0, 3, size=n_replicas)]
    return caches, queries, loads


def _time_router(make_router, caches, queries, loads):
    """Best-of-REPEATS wall time for routing the full query mix; the
    router and its directory are built untimed."""
    walls = []
    for _ in range(REPEATS):
        router = make_router()
        router.prepare(MODEL, caches, None)  # directory build is one-time
        start = time.perf_counter()
        for index, query in enumerate(queries):
            router.route(query, index, caches, loads, 0.0)
        walls.append(time.perf_counter() - start)
    return min(walls)


def _sharded_backend():
    return ShardedPrefixDirectory(n_shards=N_SHARDS, region_tokens=REGION_TOKENS)


@pytest.fixture(scope="module")
def sharded_measurements():
    """Per-decision and per-lookup cost of the sharded backend at fleet
    scale.  The directory build (attach + resync of every replica) is
    untimed — it is a run-start cost, not a per-arrival one."""
    out, fleets = {}, {}
    for n_replicas in SHARDED_FLEET_SIZES:
        caches, queries, loads = _build_fleet(
            n_replicas,
            conversations=BIG_FLEET_CONVERSATIONS,
            query_cap=BIG_FLEET_QUERY_CAP,
        )
        route_wall = _time_router(
            lambda: PrefixAffinityRouter(directory_factory=_sharded_backend),
            caches,
            queries,
            loads,
        )
        # Isolate the directory walk itself: per-route cost includes the
        # O(fleet) select scan, which would mask lookup-cost regressions.
        router = PrefixAffinityRouter(directory_factory=_sharded_backend)
        router.prepare(MODEL, caches, None)
        fleets[n_replicas] = (router, queries)
        out[n_replicas] = {
            "n_replicas": n_replicas,
            "n_queries": len(queries),
            "n_shards": N_SHARDS,
            "region_tokens": REGION_TOKENS,
            "sharded_us_per_route": 1e6 * route_wall / len(queries),
        }
    # The floor is a ratio of two of these walls, so the fleets take turns:
    # a busy spell on a shared host then slows a round of every fleet, and
    # each fleet's best round is one the host left alone.
    lookup_walls = {n_replicas: [] for n_replicas in fleets}
    for _ in range(LOOKUP_ROUNDS):
        for n_replicas, (router, queries) in fleets.items():
            lookup = router.directory.lookup
            start = time.perf_counter()
            for query in queries:
                lookup(query, limit=len(query) - 1)
            lookup_walls[n_replicas].append(time.perf_counter() - start)
    for n_replicas, (router, queries) in fleets.items():
        router.release()
        out[n_replicas]["sharded_us_per_lookup"] = (
            1e6 * min(lookup_walls[n_replicas]) / len(queries)
        )
    return out


def _warm_kernel(n_replicas: int):
    """A kernel mid-life over a fleet of private prefixes: a short run has
    built its per-run state (schedulers, the load list, the router's bound
    directory), one replica is draining, and ``kernel.loads()`` +
    ``router.decide()`` can be called as an arrival would call them."""
    caches, queries, _ = _build_fleet(
        n_replicas,
        conversations=BIG_FLEET_CONVERSATIONS,
        query_cap=BIG_FLEET_QUERY_CAP,
        shared_prompt=False,
    )
    router = DirectoryRouter(directory=_sharded_backend(), max_imbalance=0)
    kernel = SimulationKernel(
        MODEL,
        caches,
        router=router,
        scenario=[ScenarioEvent(0.0, "drain", replica=1)],
    )
    rng = np.random.default_rng(5)
    sessions = [
        TraceSession(
            session_id=i,
            arrival_time=0.1 * i,
            rounds=[TraceRound(_toks(rng, 50), _toks(rng, 5))],
            think_times=[0.0],
        )
        for i in range(4)
    ]
    kernel.run(Trace(name="warm", seed=0, sessions=sessions))
    return kernel, router, queries


@pytest.fixture(scope="module")
def route_measurements():
    """Per-request cost of ``kernel.loads()`` + ``router.decide()`` at 64
    and 512 replicas; the fleets take turns, as in ``sharded_measurements``."""
    fleets = {n_replicas: _warm_kernel(n_replicas) for n_replicas in (64, 512)}
    walls = {n_replicas: [] for n_replicas in fleets}
    for _ in range(ROUTE_ROUNDS):
        for n_replicas, (kernel, router, queries) in fleets.items():
            caches, loads, decide = kernel.caches, kernel.loads, router.decide
            start = time.perf_counter()
            for index, query in enumerate(queries):
                decide(query, index, caches, loads(), 100.0)
            walls[n_replicas].append(time.perf_counter() - start)
    out = {}
    for n_replicas, (kernel, router, queries) in fleets.items():
        out[n_replicas] = {
            "n_replicas": n_replicas,
            "n_queries": len(queries),
            "decisions": router.decision_stats,
            "route_us_per_request": 1e6 * min(walls[n_replicas]) / len(queries),
        }
        router.directory.close()  # handed in, so not the router's to close
    return out


class _TimedCache:
    """A cache as a directory sees it: the observer the directory registers
    is wrapped so the seconds its mark and checkpoint callbacks take while
    ``timing`` is set add up in ``seconds``."""

    def __init__(self, cache: MarconiCache) -> None:
        self.cache = cache
        self.tree = cache.tree
        self.timing = False
        self.seconds = 0.0

    def _timed(self, callback):
        def timed(*args):
            if not self.timing:
                return callback(*args)
            start = time.perf_counter()
            callback(*args)
            self.seconds += time.perf_counter() - start

        return timed

    def add_tree_observer(self, view) -> bool:
        proxy = TreeObserver()
        for name in _VIEW_CALLBACKS:
            setattr(proxy, name, getattr(view, name))
        for name in ("on_node_added", "on_checkpoint_changed"):
            setattr(proxy, name, self._timed(getattr(view, name)))
        return self.cache.add_tree_observer(proxy)


def _deep_session(depth: int):
    """One replica whose tree holds one session ``depth`` rounds deep (a
    chain of checkpointed nodes), observed by a sharded directory; returns
    the timed cache and the session's next input."""
    cache = MarconiCache(MODEL, int(1e13), alpha=0.0)
    timed = _TimedCache(cache)
    ShardedPrefixDirectory(n_shards=N_SHARDS, region_tokens=REGION_TOKENS).attach(0, timed)
    rng = np.random.default_rng(77)
    history = np.empty(0, dtype=np.int32)
    for turn in range(depth):
        seq = np.concatenate([history, _toks(rng, UPDATE_ROUND_TOKENS - 10)])
        with cache.begin(seq, float(turn)) as session:
            history = np.concatenate([seq, _toks(rng, 10)])
            session.commit(history, turn + 0.5)
    return timed, np.concatenate([history, _toks(rng, UPDATE_ROUND_TOKENS)])


def _commit_cost(timed: _TimedCache, leaf_path: np.ndarray) -> float:
    """Seconds per commit spent in the directory's view callbacks: the new
    leaf's mark and its checkpoint (the undo after each is untimed)."""
    tree = timed.tree
    timed.seconds = 0.0
    for _ in range(UPDATE_COMMITS):
        timed.timing = True
        leaf = tree.insert(leaf_path, 0.0).end_node
        tree.set_checkpoint(leaf)
        timed.timing = False
        tree.clear_checkpoint(leaf)
        tree.remove_leaf(leaf)
    return timed.seconds / UPDATE_COMMITS


@pytest.fixture(scope="module")
def update_measurements():
    """Per-commit directory maintenance at each session depth; the depths
    take turns, as in ``sharded_measurements``."""
    sessions = {depth: _deep_session(depth) for depth in UPDATE_DEPTHS}
    walls = {depth: [] for depth in sessions}
    for _ in range(UPDATE_ROUNDS):
        for depth, (timed, leaf_path) in sessions.items():
            walls[depth].append(_commit_cost(timed, leaf_path))
    return {
        depth: {"session_rounds": depth, "update_us_per_commit": 1e6 * min(walls[depth])}
        for depth in sessions
    }


def _staleness_trial(delay: float, budget: int | None):
    """One sweep point: serve conversations while the clock runs, query
    each conversation's continuation shortly after serving it, and count
    how often the sharded view already knows about the prefix.  The
    synchronous point (delay 0, no budget) is the oracle-equivalent
    baseline the retention column normalizes against."""
    rng = np.random.default_rng(4242)
    caches = [
        MarconiCache(MODEL, int(1e12), alpha=0.0) for _ in range(STALENESS_REPLICAS)
    ]
    if delay == 0.0 and budget is None:
        directory = ShardedPrefixDirectory(
            n_shards=N_SHARDS, region_tokens=REGION_TOKENS
        )
        transport = None
    else:
        directory = ShardedPrefixDirectory(
            n_shards=N_SHARDS,
            region_tokens=REGION_TOKENS,
            propagation_delay=delay,
            gossip_budget=budget,
            gossip_interval=0.25,
        )
        transport = ManualGossipTransport()
        directory.connect_transport(transport)
    for index, cache in enumerate(caches):
        directory.attach(index, cache)
    served: list[tuple[int, np.ndarray]] = []
    hits = total = 0
    now = 0.0
    for step in range(48):
        replica = step % STALENESS_REPLICAS
        seq = _toks(rng, 600)
        with caches[replica].begin(seq, now) as session:
            full = np.concatenate([seq, _toks(rng, 40)])
            session.commit(full, now + 0.1)
        served.append((replica, full))
        now += 1.0
        if transport is not None:
            transport.run_until(now)
        else:
            directory.advance_to(now)
        # Revisit the conversation served 1..STALENESS_QUERY_AGES steps
        # ago: the older the target, the more gossip has landed.
        target = len(served) - 1 - (step % STALENESS_QUERY_AGES)
        if target < 0:
            continue
        target_replica, target_full = served[target]
        query = np.concatenate([target_full, _toks(rng, 30)])
        lookup = directory.lookup(query, limit=len(query) - 1)
        total += 1
        if lookup.ckpt_depth.get(target_replica, 0) >= len(target_full):
            hits += 1
    snapshot = directory.staleness()
    directory.close()
    return {
        "propagation_delay": delay,
        "gossip_budget": budget,
        "lookup_hit_rate": hits / total,
        "lookup_age_p95": snapshot["lookup_age_p95"],
        "updates_applied": snapshot["updates_applied"],
        "updates_pending": snapshot["updates_pending"],
    }


@pytest.fixture(scope="module")
def staleness_sweep():
    points = [
        _staleness_trial(delay, budget)
        for delay in STALENESS_DELAYS
        for budget in STALENESS_BUDGETS
    ]
    baseline = max(p["lookup_hit_rate"] for p in points)
    for point in points:
        point["hit_retention"] = (
            point["lookup_hit_rate"] / baseline if baseline else 0.0
        )
    return points


class TestRouterMicrobench:
    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="perf floor gated on >= 2 cores (matches the CI perf lane)",
    )
    def test_sharded_lookup_cost_sublinear_64_to_512(self, sharded_measurements):
        """The fleet-scale floor: 8x more replicas cost less than 3x per
        sharded lookup (depth does not grow, and the walk reads no
        per-replica map)."""
        per_lookup_64 = sharded_measurements[64]["sharded_us_per_lookup"]
        per_lookup_512 = sharded_measurements[512]["sharded_us_per_lookup"]
        assert per_lookup_512 < LOOKUP_GROWTH_BOUND_64_TO_512 * per_lookup_64, (
            f"sharded per-lookup cost grew {per_lookup_512 / per_lookup_64:.1f}x "
            f"from 64 to 512 replicas"
        )

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="perf floor gated on >= 2 cores (matches the CI perf lane)",
    )
    def test_route_decision_cost_sublinear_64_to_512(self, route_measurements):
        """A fleet request costs what it touches: with one holder per
        prefix, 8x more replicas cost at most 2x per ``kernel.loads()`` +
        ``router.decide()``.  The absolute cost at 64 replicas (~11 us on
        the host the floor was set on) is reported, not asserted: hosts
        differ."""
        per_route_64 = route_measurements[64]["route_us_per_request"]
        per_route_512 = route_measurements[512]["route_us_per_request"]
        print(
            f"\nloads() + decide(): {per_route_64:.1f} us at 64 replicas, "
            f"{per_route_512:.1f} us at 512 ({per_route_512 / per_route_64:.1f}x)"
        )
        for stats in route_measurements.values():
            assert {"affinity", "cold"} <= stats["decisions"].keys()
        assert per_route_512 <= ROUTE_GROWTH_BOUND_64_TO_512 * per_route_64, (
            f"loads() + decide() grew {per_route_512 / per_route_64:.1f}x "
            f"from 64 to 512 replicas"
        )

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="perf floor gated on >= 2 cores (matches the CI perf lane)",
    )
    def test_directory_update_cost_flat_in_session_depth(self, update_measurements):
        """A directory update starts where it changes: a commit on a session
        8x deeper costs at most 2x in the directory's view callbacks."""
        shallow, deep = (update_measurements[d]["update_us_per_commit"] for d in UPDATE_DEPTHS)
        print(
            f"\ndirectory update per commit: {shallow:.1f} us at {UPDATE_DEPTHS[0]} "
            f"rounds, {deep:.1f} us at {UPDATE_DEPTHS[1]} ({deep / shallow:.2f}x)"
        )
        assert deep <= UPDATE_GROWTH_BOUND * shallow, (
            f"a commit's directory update grew {deep / shallow:.1f}x from "
            f"{UPDATE_DEPTHS[0]} to {UPDATE_DEPTHS[1]} session rounds"
        )

    def test_staleness_trades_hit_rate_monotonically(self, staleness_sweep):
        """The sweep's sanity contract: the synchronous point retains the
        full hit rate, and adding delay never gains hits."""
        by_budget: dict = {}
        for point in staleness_sweep:
            by_budget.setdefault(point["gossip_budget"], []).append(point)
        sync = next(
            p
            for p in staleness_sweep
            if p["propagation_delay"] == 0.0 and p["gossip_budget"] is None
        )
        assert sync["hit_retention"] == pytest.approx(1.0)
        for points in by_budget.values():
            points.sort(key=lambda p: p["propagation_delay"])
            for earlier, later in zip(points, points[1:]):
                assert later["lookup_hit_rate"] <= earlier["lookup_hit_rate"] + 1e-9

    def test_emit_bench_json(
        self, sharded_measurements, route_measurements, update_measurements, staleness_sweep
    ):
        """Persist the perf snapshot."""
        payload = {
            "workload": {
                "conversations_per_replica": BIG_FLEET_CONVERSATIONS,
                "system_prompt_tokens": SYSTEM_PROMPT_TOKENS,
                "template_tokens": TEMPLATE_TOKENS,
                "unique_tokens": UNIQUE_TOKENS,
                "model": "hybrid_7b",
            },
            "sharded_fleets": {
                str(n): stats for n, stats in sharded_measurements.items()
            },
            "route_decision": {
                str(n): stats for n, stats in route_measurements.items()
            },
            "directory_update": {
                str(depth): stats for depth, stats in update_measurements.items()
            },
            "staleness_sweep": staleness_sweep,
            "lookup_growth_bound_64_to_512": LOOKUP_GROWTH_BOUND_64_TO_512,
            "route_growth_bound_64_to_512": ROUTE_GROWTH_BOUND_64_TO_512,
            "update_growth_bound": UPDATE_GROWTH_BOUND,
        }
        write_bench(BENCH_PATH, "sharded_directory_lookup_floor_and_staleness", payload)
        assert BENCH_PATH.exists()
