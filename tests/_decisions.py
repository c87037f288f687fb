"""The decision digest: a seeded replay written down one decision per JSONL
line, with the state it leaves hashed at intervals.

A :class:`Recorder` is ``repro.core.sink``'s consumer while a scenario runs.
It puts a ``TreeObserver`` on every watched cache (a mid-run joiner too) and
writes what those caches and their router decide; every other source (a
tuner's replay replicas, a cache the router never bound) is ignored.  Lines,
where ``crc, n`` are the crc32 and count of the tree events (adds, splits,
removals — the victims —, merges, truncations, checkpoints, touches,
re-attaches) since the previous ``d`` / ``b`` / ``h`` line:

* ``["d", session, replica, transfer, crc, n]``: a routing decision;
  ``transfer`` is 0 or ``[source, target, depth, split_depth, nbytes]``;
* ``["b", input_len, hit_tokens, crc, n]``: a ``begin`` of the one watched
  cache, in a scenario with no router;
* ``["h", trees, indexes, crc, n]``: every :data:`HASH_EVERY` decisions and
  when the run drains, a crc per replica tree (``check_integrity`` order:
  edge bytes, checkpoint, ``last_access``, hit count) and per directory or
  shard index (edge bytes, cover and ckpt in dict order, ``IndexStats``),
  then one of ``staleness()`` and the replica views' resume-map sizes;
* ``["r", replica, session, round, hit_tokens, reused_bytes, ttft.hex(),
  crc of every field]``: a ``RequestRecord``, after the run;
* ``["s", {...}]``: cache stats (and each cache's extra counters, such as
  second-tier promotions and demotions), routed counts, busy seconds,
  iteration count, TBT gaps (length and crc), steering counters;
* ``["l", kv_matched, ckpt_depths]``: in the scenarios that ask for it, a
  directory lookup's two maps as ``[replica, value]`` pairs in dict order
  (a split plan sorts the depths it reads, so no decision shows their order).

A fixture whose trace is drawn at run time starts with :data:`NUMPY`.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import zlib
from dataclasses import astuple
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from repro.analysis import capacity_curve, clairvoyant_replay
from repro.analysis.belady import victim_profile
from repro.baselines.oracle import tune_static_alpha
from repro.baselines.registry import make_cache
from repro.baselines.vanilla import VanillaCache
from repro.baselines.vllm_plus import VLLMPlusCache
from repro.cluster import DirectoryRouter, HierarchicalRouter, LeastLoadedRouter
from repro.cluster import PrefixAffinityRouter, PrefixDirectory, RoundRobinRouter
from repro.cluster import ScenarioEvent, ShardedPrefixDirectory, simulate_cluster
from repro.core.cache import MarconiCache
from repro.core.interfaces import replay_log
from repro.core import sink
from repro.core.radix_tree import TreeObserver
from repro.engine.iteration import IterationConfig, simulate_trace_iteration
from repro.engine.latency import LatencyModel
from repro.engine.server import simulate_trace
from repro.experiments.config import DATASET_CONFIGS, get_scale
from repro.experiments.steering_sweep import split_probe_trace
from repro.models.memory import node_state_bytes
from repro.models.presets import hybrid_7b, transformer_7b
from repro.tiering import TieredMarconiCache
from repro.workloads import generate_trace
from repro.workloads.trace import Trace

TRACES = Path(__file__).parent / "fixtures"
FIXTURES = TRACES / "decisions"
_REPO = str(Path(__file__).resolve().parents[1])
if _REPO not in sys.path:  # bench_e2e, under a bare ``pytest`` too
    sys.path.append(_REPO)
MODEL = hybrid_7b()
TRANSFORMER = transformer_7b()
HASH_EVERY = 64
SEED = 11
# At scale 0.25 seed 11's fleet plans no transfer; 28's plans three (two
# split, one whole), promotes and demotes, fails a replica mid-decode and
# joins a spare.
FLEET_SEED = 28
SHOW_EVENTS = 40
#: The first line of a fixture whose scenario draws its trace from numpy
#: Generators at run time (the directory scenario, the ``bench_e2e``
#: workloads): numpy does not promise the same streams across releases.
#: It is not compared; a divergence reports it when it differs.
NUMPY = ["numpy", np.__version__]


# ----------------------------------------------------------------------
# The kernel matrix's three trace shapes and two caches
# ----------------------------------------------------------------------
#: Frozen as ``tests/fixtures/matrix_<shape>.trace.jsonl``, as the golden
#: traces are, so that a numpy release cannot move them: ``lmsys`` (14
#: sessions at 4/s, so the FCFS queue builds depth), ``bursty`` (waves of
#: same-instant arrivals, the tie-break torture test; round 0 of session
#: ``i`` appends ``300 + 40 i`` tokens) and ``zero_think`` (next rounds
#: arriving exactly at decode end: equal-timestamp events).
SHAPES = ("lmsys", "bursty", "zero_think")


def matrix_trace(shape: str) -> Trace:
    """A fresh copy of one of the matrix's :data:`SHAPES`."""
    return Trace.from_jsonl(TRACES / f"matrix_{shape}.trace.jsonl")


def marconi() -> MarconiCache:
    # Small enough that eviction fires during the replay.
    return MarconiCache(MODEL, 6 * node_state_bytes(MODEL, 2000, True), alpha=1.0)


CACHES = {"marconi": marconi, "vanilla": lambda: VanillaCache(MODEL)}


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def _crc(text: str) -> int:
    return zlib.crc32(text.encode())


class _Tap(TreeObserver):
    """Logs one replica tree's events, never touching the tree."""

    def __init__(self, log: Callable[[str], None], replica: int) -> None:
        self.log, self.r = log, replica

    def on_node_added(self, node):
        self.log(f"r{self.r} add {node.seq_len} {node.kv_tokens} {zlib.crc32(node.edge_tokens):08x}")

    def on_edge_split(self, middle, child):
        self.log(f"r{self.r} split {middle.seq_len} {child.seq_len}")

    def on_leaf_removed(self, node, parent):
        self.log(f"r{self.r} remove {node.seq_len} {node.kv_tokens}")

    def on_merged(self, node, child):
        self.log(f"r{self.r} merge {node.seq_len} {child.seq_len}")

    def on_leaf_truncated(self, node, dropped):
        self.log(f"r{self.r} truncate {node.seq_len} {len(dropped)}")

    def on_checkpoint_changed(self, node):
        self.log(f"r{self.r} ckpt {node.seq_len} {node.has_ssm_state:d}")

    def on_touched(self, node):
        self.log(f"r{self.r} touch {node.seq_len} {node.last_access!r}")

    def on_tree_attached(self, tree):
        self.log(f"r{self.r} attached")


def _tree_crc(cache: Any) -> int:
    crc = _crc(repr(cache.used_bytes))
    tree = getattr(cache, "tree", None)
    for node in tree.iter_nodes(include_root=True) if tree is not None else ():
        state = f"{node.seq_len} {node.has_ssm_state:d} {node.last_access!r} {node.hit_count}"
        crc = zlib.crc32(state.encode(), zlib.crc32(node.edge_tokens, crc))
    return crc


def _directory_crcs(directory: Any) -> list[int]:
    shards = getattr(directory, "shards", None)
    crcs = []
    for index in [directory.index] if shards is None else [s.directory for s in shards]:
        crc = _crc(repr(index.stats))
        for node in index.iter_nodes():
            state = f"{node.end} {list(node.cover.items())} {list(node.ckpt)}"
            crc = zlib.crc32(state.encode(), zlib.crc32(node.edge, crc))
        crcs.append(crc)
    held = [len(view.held) for view in directory._views.values()]
    return crcs + [_crc(repr(directory.staleness()) + repr(held))]


class Recorder:
    """A sink consumer: one replay's lines, and per ``d`` / ``b`` / ``h``
    line the slice of ``events`` logged before it (what a failure prints)."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.events: list[str] = []
        self.windows: dict[int, tuple[int, int]] = {}
        self.caches: list[Any] = []
        self.router: Any = None
        self.lookups: Any = None  # the directory whose lookups are put
        self.runs = False  # watch each kernel run's fleet, finish at its drain
        self._start = self._decisions = 0

    def attach(self, caches: list, router: Any = None, lookups: bool = False) -> None:
        """Watch ``caches`` and any replica that joins ``router``'s run;
        ``lookups``: put every lookup the router's directory answers."""
        for cache in caches:
            self.watch(cache)
        self.router = router
        self.lookups = router.directory if lookups else None

    def __call__(self, event: str, source: Any, *details: Any) -> None:
        """The sink: each decision of what this replay watches is a line."""
        if event == "begin" and self.router is None and source in self.caches[:1]:
            session, tokens, _ = details
            self.decision(["b", len(tokens), session.result.hit_tokens])
        elif event == "route" and source is self.router:
            decision, session_id = details
            t = decision.transfer
            split = getattr(t, "split_depth", None)
            transfer = 0 if t is None else [t.source, t.target, len(t.tokens), split, t.nbytes]
            self.decision(["d", session_id, decision.replica, transfer])
        elif event == "lookup" and source is self.lookups:
            found = details[0]
            self.put(["l", list(found.kv_matched.items()), list(found.ckpt_depths.items())])
        elif event == "join" and self.router is not None and source.router is self.router:
            self.watch(details[1])
        elif event == "run" and self.runs:
            self.attach(source.caches, source.router)
        elif event == "drain" and self.runs:
            self.finish(details[0])

    def watch(self, cache: Any) -> None:
        self.caches.append(cache)
        cache.add_tree_observer(_Tap(self.events.append, len(self.caches) - 1))

    def decision(self, payload: list) -> None:
        start, end = self._start, len(self.events)
        self._start = end
        self.windows[len(self.lines)] = (start, end)
        self.put(payload + [_crc("\n".join(self.events[start:end])), end - start])
        if payload[0] != "h":
            self._decisions += 1
            if self._decisions % HASH_EVERY == 0:
                self.state_hash()

    def state_hash(self) -> None:
        directory = getattr(self.router, "directory", None)
        indexes = [] if directory is None else _directory_crcs(directory)
        self.decision(["h", [_tree_crc(cache) for cache in self.caches], indexes])

    def finish(self, result: Any) -> None:
        """The state hash as the run drains, every record, the summary."""
        self.state_hash()
        replicas = getattr(result, "replica_results", None) or [result]
        for k, res in enumerate(replicas):
            for r in res.records:
                fields = [r.session_id, r.round_index, r.hit_tokens, r.reused_bytes, r.ttft.hex()]
                self.put(["r", k, *fields, _crc(repr(astuple(r)))])
        summary: dict[str, Any] = {"cache_stats": [res.cache_stats for res in replicas]}
        extra = [cache.stats.extra for cache in self.caches]
        if any(extra):  # second-tier promotions and demotions, aborts
            summary["extra"] = extra
        for name in ("routed_counts", "busy_seconds", "n_iterations", "n_events"):
            if hasattr(result, name):
                summary[name] = getattr(result, name)
        if hasattr(result, "tbt_gaps"):
            summary["tbt_gaps"] = [len(result.tbt_gaps), _crc(repr(result.tbt_gaps))]
        if getattr(result, "steering", None) is not None:
            summary["steering"] = [result.steering.counters, result.steering.total_transfer_bytes]
        self.put(["s", summary])

    def put(self, payload: list) -> None:
        self.lines.append(json.dumps(payload, separators=(",", ":"), default=repr))


# ----------------------------------------------------------------------
# Scenarios: name -> replay(recorder)
# ----------------------------------------------------------------------
def _cell(makers: list, engine: Callable, trace: Callable, router: Any = None) -> Callable:
    """One cell of the kernel matrix: fresh caches, ``engine`` over
    ``trace()``; the router's decisions recorded, or the one cache's begins."""

    def replay(rec: Recorder) -> None:
        caches = [make() for make in makers]
        rec.attach(caches, router and router())
        args = (caches[0],) if router is None else (caches, rec.router)
        rec.finish(engine(MODEL, *args, trace()))

    return replay


def _directory_restart(rec: Recorder) -> None:
    """The cases the matrix never reaches (its routers own their
    directories and never steer): a ``DirectoryRouter`` reading a shared
    oracle ``PrefixDirectory``; few-shot sessions share their preamble and
    ``max_imbalance=0`` spills them, so equally deep holders tie; after a
    first run replica 0 restarts warm (its tree swapped for a snapshot of
    itself, as a persistence reload does) under the live directory view."""
    caches = [marconi() for _ in range(3)]
    router = DirectoryRouter(max_imbalance=0, directory=PrefixDirectory())
    rec.put(NUMPY)
    rec.attach(caches, router)
    trace = generate_trace("fewshot", n_sessions=24, seed=SEED, session_rate=2.0)
    rec.finish(simulate_cluster(MODEL, caches, router, trace))
    caches[0].tree = caches[0].tree.clone()
    rec.finish(simulate_cluster(MODEL, caches, router, trace))


def _racks(rec: Recorder) -> None:
    """A ``HierarchicalRouter`` over racks of 3, 3 and 2 replicas: few-shot
    sessions arrive faster than a preamble gains its branch checkpoint, so
    cold picks seed it in every rack and racks tie on the deepest hit;
    ``rack_max_imbalance=0`` spills within the rack."""
    caches = [marconi() for _ in range(8)]
    router = HierarchicalRouter(rack_size=3, max_imbalance=2, rack_max_imbalance=0)
    rec.put(NUMPY)
    rec.attach(caches, router)
    trace = generate_trace("fewshot", n_sessions=48, seed=SEED, session_rate=200.0)
    rec.finish(simulate_cluster(MODEL, caches, router, trace))


#: Compute so slow and links so fast that a few tokens are worth shipping.
LOAD_BEATS_COMPUTE = LatencyModel(
    peak_flops_per_s=1e9,
    transfer_latency_s=0.0,
    transfer_bandwidth_bytes_per_s=1e15,
    secondary_fetch_bandwidth_bytes_per_s=1e15,
)


def _mixed_fleet(rec: Recorder) -> None:
    """``decide`` called on a ``DirectoryRouter`` over three hybrid tiered
    replicas, a pure-Transformer one (the ``kv`` rule) and a tree-less vLLM+
    one (the ``fallback`` rule, probed); each request is served where it was routed, each
    planned transfer landed.  A query re-sends a served sequence whole (so
    the ``kv`` cap binds), extends it, or branches off it at a drawn depth
    (so holders cover the path to several depths); every lookup is put."""
    draw = random.Random(SEED)
    state = node_state_bytes(MODEL, 48, True)
    caches: list[Any] = [
        TieredMarconiCache(MODEL, 3 * state, secondary_bytes=6 * state, alpha=1.0)
        for _ in range(3)
    ]
    caches += [VLLMPlusCache(MODEL, int(1e12), block_size=1), MarconiCache(TRANSFORMER, int(1e12))]
    router = DirectoryRouter(max_imbalance=1, transfer_min_tokens=4, directory=PrefixDirectory())
    rec.attach(caches, router, lookups=True)
    router.prepare(MODEL, caches, LOAD_BEATS_COMPUTE)

    def fresh(low: int, high: int) -> list[int]:
        return [draw.randrange(1000) for _ in range(draw.randrange(low, high))]

    served = [fresh(8, 40)]
    for step in range(160):
        seq = draw.choice(served)
        mode = draw.choice("NWWWEEBB")  # new, whole, extended, branching
        if mode == "N":
            seq = fresh(8, 40)
        elif mode == "E":
            seq = seq + fresh(1, 4)
        elif mode == "B":
            seq = seq[: draw.randrange(1, len(seq))] + fresh(1, 6)
        query = np.array(seq, dtype=np.int32)
        loads = [draw.randrange(3) for _ in caches]
        decision = router.decide(query, step, caches, loads, float(step))
        if decision.transfer is not None:
            t = decision.transfer
            caches[t.target].receive_state_transfer(t.tokens, t.nbytes, float(step))
        full = seq if mode == "W" else seq + fresh(0, 3)
        with caches[decision.replica].begin(query, float(step)) as session:
            session.commit(np.array(full, dtype=np.int32), step + 0.5)
        if mode != "W":
            served.append(full)
    rec.state_hash()
    rec.put(["s", router.decision_stats, [cache.stats for cache in caches]])


def _siblings(rec: Recorder) -> None:
    """One tiered replica with room for two states: two sequences of one
    length that differ only in their last token are demoted to the second
    tier, and a request extending each promotes its own back."""
    state = node_state_bytes(MODEL, 64, True)
    cache = TieredMarconiCache(MODEL, 2 * state, secondary_bytes=16 * state, alpha=1.0)
    rec.attach([cache])
    stem = list(range(1, 48))
    fillers = [list(range(start, start + 40)) for start in (100, 200, 300)]
    script = [stem + [1], stem + [2], *fillers, stem + [1, 7, 7], stem + [2, 7, 7]]
    for now, seq in enumerate(script):
        with cache.begin(np.array(seq, dtype=np.int32), float(now)) as session:
            session.commit(np.array(seq, dtype=np.int32), now + 0.5)
    rec.state_hash()
    rec.put(["s", cache.stats])


def _split_probe(rec: Recorder) -> None:
    """The steering sweep's split probe at 1 GB/s: one session lays a
    checkpoint per round on replica 0, which drains; its last round goes to
    replica 1, which plans a split transfer among those interior depths."""
    caches = [TieredMarconiCache(MODEL, int(1e12), int(1e12)) for _ in range(2)]
    router = DirectoryRouter(transfer_min_tokens=16, directory=PrefixDirectory())
    rec.put(NUMPY)
    rec.attach(caches, router, lookups=True)
    drain = [ScenarioEvent(10.0, "drain", replica=0)]
    latency = LatencyModel(transfer_bandwidth_bytes_per_s=1e9)
    trace = split_probe_trace()
    rec.finish(simulate_cluster(MODEL, caches, router, trace, latency, scenario=drain))


def _stale_shards(region_tokens: int) -> Callable:
    """A ``DirectoryRouter`` over four replicas reading a sharded directory
    whose gossip lags a second and flushes two updates at a time, so shards
    answer stale; replica 1 fails mid-run and they go on naming it until
    its invalidation lands.  The directory also tracks a fifth replica the
    router never bound, which holds half the sessions' second rounds."""

    def replay(rec: Recorder) -> None:
        caches = [marconi() for _ in range(4)]
        directory = ShardedPrefixDirectory(
            n_shards=3, region_tokens=region_tokens, propagation_delay=1.0, gossip_budget=2
        )
        router = DirectoryRouter(max_imbalance=1, directory=directory)
        rec.put(NUMPY)
        rec.attach(caches, router, lookups=True)
        trace = generate_trace("sharegpt", n_sessions=16, seed=SEED, session_rate=4.0)
        stranger = MarconiCache(MODEL, int(1e12))
        directory.attach(len(caches), stranger)
        for session in trace.sessions[::2]:
            seq = session.interned_round(min(1, session.n_rounds - 1))[1].arr
            stranger.begin(seq, 0.0).commit(seq, 0.0)
        fail = [ScenarioEvent(3.0, "fail", replica=1)]
        rec.finish(simulate_cluster(MODEL, caches, router, trace, scenario=fail))
        directory.close()

    return replay


def _kernel_workload(
    name: str, scale: float, modelled: bool = False, seed: int = SEED
) -> Callable:
    """A ``bench_e2e`` kernel workload at ``scale`` and ``seed``, built and
    replayed by the benchmark's own code (its checks included); with
    ``modelled``, ``gateway_live``'s kernel model of its own sub-trace.
    The kernel run is watched from its start and recorded as it drains,
    before the benchmark closes the directory."""

    def replay(rec: Recorder) -> None:
        from bench_e2e.workloads import WORKLOADS

        workload = WORKLOADS[name]
        rec.put(NUMPY)
        rec.runs = True
        if modelled:
            rep = workload.modelled(seed, scale)
        else:
            rep = workload.replay(workload.build(seed, scale), None)
        assert not rep.verdict.failures, rep.verdict.failures

    return replay


def _nominal_replays(rec: Recorder) -> None:
    """Every nominal replay of lmsys at smoke scale, 4 GB pre-scaling, where
    the online tuner adopts alpha 2: the static-alpha oracle's hit rates,
    the clairvoyant bound's hits and evictions, its victim profile, a
    capacity curve over the dataset's grid, and a tuned Marconi cache's
    begins, its tree's hash, its tuner's grid search and adopted alpha."""
    config, scale = DATASET_CONFIGS["lmsys"], get_scale("smoke")
    trace = generate_trace(config.workload, config.workload_params(scale))
    capacity = scale.cache_bytes(config.cache_grid_gb[0])
    log = trace.nominal_log()
    rec.put(NUMPY)
    rec.put(["alpha", list(tune_static_alpha(MODEL, capacity, log).hit_rates.items())])
    bound = clairvoyant_replay(MODEL, log, capacity)
    rec.put(["clairvoyant", bound.per_request_hits, bound.evictions])
    victims = victim_profile(MODEL, log, capacity, config.mean_think_s)
    rec.put(["victims", [astuple(victim) for victim in victims]])
    grid = [scale.cache_bytes(gb) for gb in config.cache_grid_gb]
    rec.put(["capacity", [astuple(point) for point in capacity_curve(MODEL, trace, grid)]])
    cache = make_cache("marconi", MODEL, capacity)
    rec.attach([cache])
    replay_log(cache, log)
    rec.state_hash()
    rec.put(["s", list(cache.tuner.search_results.items()), cache.alpha, cache.stats])


class ServedLog:
    """A sink consumer: ``cache``'s traffic as ``("begin", serial, tokens,
    now)``, ``("commit", serial, full, now)`` and ``("abort", serial)``, the
    log ``replay_log`` serves, a request keyed by the serial of its begin,
    and each begin's served hit.  It holds no session: a held one would
    never be collected, and the GC safety net would then abort something
    else.  ``others`` counts the begins of every other cache (a tuner's
    replay replicas)."""

    def __init__(self, cache: Any) -> None:
        self.cache, self.entries, self.hits, self.others = cache, [], [], 0
        self._serials: dict[int, int] = {}  # id of an open session -> its serial

    def __call__(self, event: str, source: Any, *details: Any) -> None:
        if event not in ("begin", "commit", "abort"):
            return
        if source is not self.cache:
            self.others += event == "begin"
            return
        session, *rest = details
        if event == "begin":
            serial = self._serials[id(session)] = len(self.hits)
            self.hits.append(session.hit_tokens)
        else:
            serial = self._serials.pop(id(session))
        self.entries.append((event, serial, *rest))


def serve_logged(model: Any, make: Callable, trace: Trace, **serve: Any) -> tuple:
    """A served run of ``trace`` on a fresh ``make()``: the cache, its
    :class:`ServedLog` and the run.  The sink is put back as it was."""
    cache, previous = make(), sink.SINK
    log = sink.SINK = ServedLog(cache)
    try:
        run = simulate_trace(model, cache, trace, **serve)
    finally:
        sink.SINK = previous
    return cache, log, run


def _served_log(rec: Recorder) -> None:
    """Served runs of sharegpt at smoke scale, 2.5 GB pre-scaling, under
    LRU and the online tuner: each begin's served hit, then its hit when
    ``replay_log`` serves the run's cache log on a fresh cache; the tuner's
    grid search and adopted alpha."""
    config, scale = DATASET_CONFIGS["sharegpt"], get_scale("smoke")
    trace = generate_trace(config.workload, config.workload_params(scale))
    rec.put(NUMPY)
    for name in ("sglang+", "marconi"):
        make = partial(make_cache, name, MODEL, scale.cache_bytes(2.5))
        cache, log, _ = serve_logged(MODEL, make, trace, latency=LatencyModel())
        rec.put([name, log.hits, replay_log(make(), log.entries)])
        if cache.tuner is not None:
            rec.put(["tuner", list(cache.tuner.search_results.items()), cache.alpha])


def _live_gateway(rec: Recorder) -> None:
    """``gateway_live``'s closed loop on asyncio at scale 0.25: its step loop
    counts yields and never reads a clock to decide one, so it replays
    exactly."""
    from bench_e2e.workloads import WORKLOADS

    workload = WORKLOADS["gateway_live"]
    rec.put(NUMPY)
    system = workload.build(SEED, 0.25)
    rec.attach([system.cache])
    rep = workload.replay(system, None)
    assert not rep.verdict.failures, rep.verdict.failures
    rec.state_hash()
    rec.put(["s", [rep.rounds, rep.served, rep.hit_tokens, rep.input_tokens]])


ITERATION_CONFIGS = {
    "default": IterationConfig(),
    "fine": IterationConfig(token_budget=64, max_batch=2),
    "coarse": IterationConfig(token_budget=4096, max_batch=1),
}
ROUTERS = {
    "round_robin": RoundRobinRouter,
    "least_loaded": LeastLoadedRouter,
    "prefix_affinity": PrefixAffinityRouter,
}
SCENARIOS: dict[str, Callable[[Recorder], None]] = {
    "nominal-replays": _nominal_replays,  # first two: the ones that reach `replay_log`
    "served-log": _served_log,
    "directory-fewshot-restart": _directory_restart,  # next: the one with ties and a restart
    "hierarchical-racks": _racks,
    "directory-mixed-fleet": _mixed_fleet,
    "tiering-siblings": _siblings,
    "directory-split-probe": _split_probe,
    **{f"sharded-stale-region{n}": _stale_shards(n) for n in (1, 4, 32)},
}
for _t in SHAPES:
    _trace = partial(matrix_trace, _t)
    for _c, _make in CACHES.items():
        for _n in (1, 4):
            _serve = partial(simulate_trace, n_executors=_n)
            SCENARIOS[f"serving-{_t}-{_c}-x{_n}"] = _cell([_make], _serve, _trace)
        for _k, _config in ITERATION_CONFIGS.items():
            _iterate = partial(simulate_trace_iteration, config=_config)
            SCENARIOS[f"iteration-{_t}-{_c}-{_k}"] = _cell([_make], _iterate, _trace)
    for _n in (1, 2, 3):
        for _r, _router in ROUTERS.items():
            SCENARIOS[f"cluster-{_t}-{_r}-r{_n}"] = _cell(
                [marconi] * _n, simulate_cluster, _trace, _router
            )
SCENARIOS["fleet_steer"] = _kernel_workload("fleet_steer", 0.25, seed=FLEET_SEED)
SCENARIOS["cache_contended"] = _kernel_workload("cache_contended", 0.25)
SCENARIOS["cache_reuse"] = _kernel_workload("cache_reuse", 0.1)
SCENARIOS["gateway_live"] = _live_gateway
SCENARIOS["gateway_live-modelled"] = _kernel_workload("gateway_live", 0.25, modelled=True)


# ----------------------------------------------------------------------
# Comparing with the fixtures
# ----------------------------------------------------------------------
def record(name: str) -> Recorder:
    rec = sink.SINK = Recorder()
    try:
        SCENARIOS[name](rec)
    finally:
        sink.SINK = None
    return rec


def write(name: str) -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    (FIXTURES / f"{name}.jsonl").write_text("\n".join(record(name).lines) + "\n")


def divergence(name: str) -> Optional[str]:
    """None when scenario ``name`` replays its fixture line for line (its
    :data:`NUMPY` line aside); else
    the scenario, its first differing line and this run's tree events in
    the window before that line."""
    rec = record(name)
    expected = (FIXTURES / f"{name}.jsonl").read_text().splitlines()
    header = expected[:1] + rec.lines[:1]
    skip = int(len(header) == 2 and all(line.startswith('["numpy"') for line in header))
    lines = itertools.zip_longest(expected[skip:], rec.lines[skip:], fillvalue="<no line>")
    for i, (want, got) in enumerate(lines, start=skip):
        if want != got:
            break
    else:
        return None
    message = [
        f"decision digest {name!r} diverges at line {i + 1} of tests/fixtures/decisions/{name}.jsonl",
        f"  expected: {want}",
        f"  actual:   {got}",
    ]
    if skip and header[0] != header[1]:
        message.append(
            f"  the fixture was written under {header[0]}, this run has {header[1]}: a numpy"
            " release may draw this scenario's trace differently, with no code change"
        )
    if i in rec.windows:
        start, end = rec.windows[i]
        message.append(f"  this run's {end - start} tree events since the line before:")
        message += [f"    {event}" for event in rec.events[max(start, end - SHOW_EVENTS) : end]]
    return "\n".join(message)


def first_divergence() -> Optional[str]:
    """The first divergence, in :data:`SCENARIOS` order."""
    for name in SCENARIOS:
        message = divergence(name)
        if message is not None:
            return message
    return None
