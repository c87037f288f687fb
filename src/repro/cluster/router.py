"""Routing policies for multi-replica stateful serving.

A router sees each request at arrival (tokens, session, per-replica load)
and picks the replica that will serve it.  The policies span the design
space the Preble paper maps: load-only (round-robin, least-loaded),
locality-only (session affinity), and the combined prefix-affinity policy
that chases cached prefixes but spills to less-loaded replicas when the
preferred one is overloaded.

Prefix-aware policies answer "who holds my prefix?" by reading the
shared :class:`~repro.cluster.directory.PrefixDirectory` at every fleet
size: one O(query-depth) walk per request over an index maintained
incrementally from each replica's tree events.  :class:`DirectoryRouter`
additionally *steers* state: when the load-balanced choice lacks a prefix
another replica holds, it applies a per-request compute-or-load rule and
plans a cross-replica transfer that the simulation kernel charges as an
asynchronous bandwidth/latency event.
"""

from __future__ import annotations

import abc
import zlib
from collections import defaultdict
from typing import Any, Optional, Sequence

import numpy as np

from repro.core import sink
from repro.core.interfaces import as_token_array
from repro.core.tokens import TokenSeq
from repro.cluster.directory import DirectoryLookup, PrefixDirectory
from repro.engine.steering import (
    RouteDecision,
    SplitSpec,
    TransferSpec,
    pick_least_loaded,
    plan_split,
)

_U64_MASK = (1 << 64) - 1


def probe_hit_tokens(cache: Any, tokens: np.ndarray) -> int:
    """Read-only estimate of the hit a cache would serve for ``tokens``.

    For radix-tree caches this mirrors the real hit rule (deepest exactly
    matching checkpoint for hybrid models, raw match length for pure
    Transformers) without mutating the tree.  Caches without a tree (e.g.
    block stores) may expose their own ``probe`` method; anything else
    reports 0, which degrades prefix affinity into least-loaded routing.

    Callers probing many replicas should pass an already-canonical int32
    array (see :func:`~repro.core.interfaces.as_token_array`); the
    coercion then short-circuits instead of re-running per replica.
    """
    if isinstance(tokens, TokenSeq):
        seq = tokens  # interned handle: the tree walk reuses its bytes
        tokens = seq.arr
    elif not (
        isinstance(tokens, np.ndarray)
        and tokens.dtype == np.int32
        and tokens.ndim == 1
    ):
        seq = tokens = as_token_array(tokens)
    else:
        seq = tokens
    if len(tokens) == 0:
        return 0
    probe = getattr(cache, "probe", None)
    if callable(probe):
        return int(probe(tokens))
    tree = getattr(cache, "tree", None)
    model = getattr(cache, "model", None)
    if tree is None:
        return 0
    match = tree.match(seq)
    if model is not None and getattr(model, "has_recurrent_layers", False):
        node = match.deepest_ssm_node(max_seq_len=len(tokens) - 1)
        return node.seq_len if node is not None else 0
    return min(match.matched_len, len(tokens) - 1)


class Router(abc.ABC):
    """Chooses a replica index for each arriving request."""

    name: str = "abstract"

    @abc.abstractmethod
    def route(
        self,
        tokens: np.ndarray,
        session_id: int,
        caches: Sequence[Any],
        loads: Sequence[int],
        now: float,
    ) -> int:
        """Pick a replica.  ``loads`` are per-replica in-flight request
        counts: the kernel's live list, lent for this call — read-only, and
        not to be kept (it changes under a kept reference)."""

    def decide(
        self,
        tokens: np.ndarray,
        session_id: int,
        caches: Sequence[Any],
        loads: Sequence[int],
        now: float,
    ) -> RouteDecision:
        """Full steering verdict (replica + optional state transfer).

        The base implementation wraps :meth:`route` with no transfer, so
        every load/locality router keeps its exact legacy behaviour.
        ``loads`` is read-only here as in :meth:`route`.
        """
        decision = RouteDecision(self.route(tokens, session_id, caches, loads, now))
        if sink.SINK is not None:
            sink.SINK("route", self, decision, session_id)
        return decision

    def prepare(self, model: Any, caches: Sequence[Any], latency: Any) -> None:
        """Run-start hook: the kernel hands the router its world (model,
        replica caches, latency model) before the first arrival."""

    def on_replica_joined(self, index: int, cache: Any) -> None:
        """A replica joined the cluster mid-run at ``index``."""

    def on_replica_left(self, index: int) -> None:
        """Replica ``index`` failed or was removed; forget its state."""

    def release(self) -> None:
        """Run-end hook: detach from the replica caches (observers,
        directories).  Routing again later re-attaches lazily."""

    @property
    def directory(self) -> Optional[Any]:
        """The prefix directory the router reads, if any."""
        return None

    @property
    def directory_stats(self) -> Optional[dict]:
        """Maintenance counters of the router's prefix directory, if any."""
        directory = self.directory
        return None if directory is None else directory.staleness()

    @property
    def decision_stats(self) -> dict[str, int]:
        """Steering-decision counters (empty for content-blind routers)."""
        return {}

    def reset(self) -> None:
        """Clear any internal state."""


class RoundRobinRouter(Router):
    """Cycle through replicas regardless of content or load."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def route(self, tokens, session_id, caches, loads, now) -> int:
        index = self._next % len(caches)
        self._next += 1
        return index

    def reset(self) -> None:
        self._next = 0


class LeastLoadedRouter(Router):
    """Send each request to the replica with the fewest in-flight requests.

    Ties rotate round-robin: under light load (all replicas idle) a fixed
    tie-break would pile every request onto replica 0 and thrash its cache
    while the others sit empty.
    """

    name = "least_loaded"

    def __init__(self) -> None:
        self._rotation = 0

    def _pick(self, loads: Sequence[int]) -> int:
        choice = pick_least_loaded(loads, self._rotation)
        self._rotation += 1
        return choice

    def route(self, tokens, session_id, caches, loads, now) -> int:
        return self._pick(loads)

    def reset(self) -> None:
        self._rotation = 0


class SessionAffinityRouter(Router):
    """Hash each session to a fixed replica (sticky sessions).

    Keeps within-session (input + output) reuse intact but spreads shared
    cross-session prefixes over all replicas, each of which must cache its
    own copy.
    """

    name = "session_affinity"

    def route(self, tokens, session_id, caches, loads, now) -> int:
        # Reduce mod 2^64 before serializing: ids beyond the signed-64-bit
        # range (UUID-ish external ids) must hash, not raise.  For ids that
        # already fit, the masked bytes are the same two's-complement
        # encoding as before, so placements are unchanged.
        digest = zlib.crc32((int(session_id) & _U64_MASK).to_bytes(8, "little"))
        return digest % len(caches)


class PrefixAffinityRouter(Router):
    """Route to the replica holding the longest cached prefix (Preble-style).

    ``max_imbalance`` bounds how much queueing the affinity is worth: when
    the preferred replica's in-flight count exceeds the cluster minimum by
    more than this many requests, the request spills to the least-loaded
    replica instead (it will re-warm that cache for its session's later
    rounds).  Requests with no cached prefix anywhere go least-loaded with
    a rotating tie-break, spreading cold sessions across the cluster.

    Per-replica hits are read from the incrementally maintained
    :class:`~repro.cluster.directory.PrefixDirectory` at every fleet size:
    one walk of O(query depth) nodes that returns the path it matched, and
    selection reads the checkpoint holders on it and at most one ``min``
    over the loads.  Replicas the directory cannot track (tree-less caches,
    caches with their own ``probe`` method) are probed one by one
    (:func:`probe_hit_tokens`, which the tests also hold the directory's
    answer to).

    The directory backend is pluggable: pass ``directory=`` to share one
    externally owned instance (e.g. a
    :class:`~repro.cluster.sharded_directory.ShardedPrefixDirectory`)
    across several routers in a contention experiment — the router
    attaches replicas but never closes a shared backend — or
    ``directory_factory=`` to have the router build and own a fresh
    backend per fleet.  With neither it owns a :class:`PrefixDirectory`.
    """

    name = "prefix_affinity"

    def __init__(
        self,
        max_imbalance: int = 4,
        directory: Optional[Any] = None,
        directory_factory: Optional[Any] = None,
    ) -> None:
        if max_imbalance < 0:
            raise ValueError(f"max_imbalance must be non-negative, got {max_imbalance}")
        if directory is not None and directory_factory is not None:
            raise ValueError("pass either directory or directory_factory, not both")
        self.max_imbalance = max_imbalance
        self._fallback = LeastLoadedRouter()
        self._shared_directory = directory
        self._directory_factory = directory_factory
        self._directory: Optional[Any] = None
        self._owns_directory = False
        self._bound: Optional[Sequence[Any]] = None
        self._cache_ids: Optional[list[int]] = None
        # The bound replicas by hit rule: "ckpt" / "kv" / "fallback" -> set.
        self._rules: defaultdict[str, set[int]] = defaultdict(set)
        self._stats: dict[str, int] = {}

    # -- directory plumbing --------------------------------------------
    @property
    def directory(self) -> Optional[Any]:
        if self._directory is not None:
            return self._directory
        return self._shared_directory

    @property
    def decision_stats(self) -> dict[str, int]:
        return dict(self._stats)

    def _bump(self, key: str) -> None:
        self._stats[key] = self._stats.get(key, 0) + 1

    def prepare(self, model, caches, latency) -> None:
        # Run-start hook: rebuild the directory even for an unchanged
        # fleet (a prior run's scenario may have detached failed replicas
        # that this run revives) and start decision counters fresh.
        self._stats = {}
        self._bind(caches, force=True)

    def _bind(self, caches: Sequence[Any], force: bool = False) -> None:
        """(Re-)attach the directory to ``caches``; idempotent per fleet
        unless ``force`` requests a rebuild.  The kernel lends the list it
        bound at ``prepare`` and grows it only by a join it reports, so a
        request costs one identity check; another list of the same caches
        is adopted after one compare of their ids."""
        if not force and caches is self._bound and len(caches) == len(self._cache_ids):
            return
        ids = list(map(id, caches))
        if not force and self._directory is not None and ids == self._cache_ids:
            self._bound = caches
            return
        if self._owns_directory and self._directory is not None:
            self._directory.close()
        if self._shared_directory is not None:
            # Shared backend: attach is idempotent (and rebinds a slot
            # whose cache changed), so several routers can bind the same
            # fleet to one directory without fighting over it.
            self._directory = self._shared_directory
            self._owns_directory = False
        else:
            factory = self._directory_factory or PrefixDirectory
            self._directory = factory()
            self._owns_directory = True
        self._bound, self._cache_ids = caches, ids
        self._rules = defaultdict(set)
        for index, cache in enumerate(caches):
            self._directory.attach(index, cache)
            self._rules[self._rule_for(index, cache)].add(index)

    def _rule_for(self, index: int, cache: Any) -> str:
        assert self._directory is not None
        if not self._directory.tracked(index):
            return "fallback"
        model = getattr(cache, "model", None)
        return "ckpt" if getattr(model, "has_recurrent_layers", False) else "kv"

    def on_replica_joined(self, index: int, cache: Any) -> None:
        if self._directory is not None:
            self._directory.attach(index, cache)
            assert self._cache_ids is not None
            self._cache_ids.append(id(cache))
            self._rules[self._rule_for(index, cache)].add(index)

    def on_replica_left(self, index: int) -> None:
        if self._directory is not None:
            self._directory.detach(index)

    # -- hit measurement -----------------------------------------------
    def _hits(
        self,
        tokens: np.ndarray,
        caches: Sequence[Any],
        lookup: Optional[DirectoryLookup] = None,
    ) -> dict[int, int]:
        """Hit estimate of every replica that has one (``replica -> tokens``,
        never 0: no hit, no entry), equal to :func:`probe_hit_tokens` of
        each.  A caller that passes ``lookup`` has bound the fleet to read
        it.  The directory's answer is restricted to the replicas bound here
        (a shared or stale backend may name others) and read by each one's
        rule: a checkpoint holder's hit is the deepest checkpointed node on
        the looked-up path that names it, read in place; KV matches are
        derived only for a fleet with replicas under that rule.  Replicas
        the directory cannot track are probed."""
        if lookup is None:
            self._bind(caches)
            lookup = self._directory.lookup(tokens, limit=len(tokens) - 1)
        hits: dict[int, int] = {}
        ckpt, kv = self._rules["ckpt"], self._rules["kv"]
        if ckpt:
            for depth, holders in lookup.checkpoints():
                for r in holders:
                    if r in ckpt and r not in hits:
                        hits[r] = depth
        cap = len(tokens) - 1
        if kv and cap > 0:
            for r, matched in lookup.kv_matched.items():
                if r in kv:
                    hits[r] = matched if matched < cap else cap
        for r in self._rules["fallback"]:
            hit = probe_hit_tokens(caches[r], tokens)
            if hit:
                hits[r] = hit
        return hits

    def _scope(self, hits: dict[int, int], loads: Sequence[int]) -> tuple:
        """``(holders, loads, first index, spill bound, spill pick, stat
        prefix)`` of where :meth:`_select` applies: here, the whole fleet."""
        return hits, loads, 0, self.max_imbalance, self._fallback._pick, ""

    def _select(self, hits: dict[int, int], loads: Sequence[int]) -> int:
        """The affinity-vs-spill rule, one body for every prefix router: the
        preferred replica is sought among the hit holders, the fleet only by
        ``min``."""
        if not hits:
            self._bump("cold")
            return self._fallback._pick(loads)
        holders, pool, start, bound, pick, prefix = self._scope(hits, loads)
        best = max(holders, key=lambda i: (holders[i], -loads[i], -i))
        # Loads are >= 0, so a preferred load within the bound cannot spill.
        if loads[best] > bound and loads[best] - min(pool) > bound:
            self._bump(prefix + "spilled")
            return start + pick(pool)
        self._bump(prefix + "affinity")
        return best

    def route(self, tokens, session_id, caches, loads, now) -> int:
        if not isinstance(tokens, TokenSeq):
            tokens = as_token_array(tokens)  # canonicalize once, not per replica
        return self._select(self._hits(tokens, caches), loads)

    def release(self) -> None:
        """Detach an *owned* directory's observers from the replica caches
        so they stop paying maintenance once the run is over; the next
        route()/prepare() rebuilds (and resyncs) lazily.  A shared backend
        stays attached — other routers may still be reading it; whoever
        owns it closes it."""
        if self._owns_directory and self._directory is not None:
            self._directory.close()
            self._directory = None
            self._owns_directory = False
            self._bound = self._cache_ids = None
            self._rules = defaultdict(set)

    def reset(self) -> None:
        self._fallback.reset()
        self._stats = {}
        self.release()


class DirectoryRouter(PrefixAffinityRouter):
    """Directory-driven steering: prefix affinity plus state transfers.

    Routing follows the same affinity/spill rule as
    :class:`PrefixAffinityRouter`, read from the same directory, whose
    checkpoint depths steering also needs.  On top of it, when the chosen replica's local hit is shallower than the best
    hit elsewhere in the cluster, the router applies a per-request
    **compute-or-load rule**: fetch the hot prefix's self-contained state
    (recurrent checkpoint + prefix KVs) from the owning replica if the
    modeled transfer + second-tier fetch time beats recomputing the
    missing span, otherwise recompute locally.  Planned transfers are
    executed by the simulation kernel as asynchronous bandwidth-charged
    events that land in the target's second-tier store, from which the
    existing tiering promotion path serves the request.

    With ``split=True`` (the default) the compute-or-load rule generalizes
    to **compute-or-load-or-both**: every checkpoint depth the source holds
    on the query path (``DirectoryLookup.ckpt_depths``) is a candidate
    split point, priced as the head transfer overlapped with the tail
    recompute (:func:`repro.engine.steering.plan_split`); an interior
    split is planned only when its estimate strictly beats both
    all-or-nothing endpoints, so ``split=False`` reproduces the legacy
    (PR-4) decisions byte-identically.

    ``transfer_min_tokens`` suppresses transfers for spans too short to
    matter.
    """

    name = "directory"

    def __init__(
        self,
        max_imbalance: int = 4,
        transfer: bool = True,
        transfer_min_tokens: int = 64,
        split: bool = True,
        directory: Optional[Any] = None,
        directory_factory: Optional[Any] = None,
    ) -> None:
        super().__init__(
            max_imbalance=max_imbalance,
            directory=directory,
            directory_factory=directory_factory,
        )
        if transfer_min_tokens < 1:
            raise ValueError(
                f"transfer_min_tokens must be >= 1, got {transfer_min_tokens}"
            )
        self.transfer_enabled = transfer
        self.transfer_min_tokens = transfer_min_tokens
        self.split_enabled = split
        self._model: Any = None
        self._latency: Any = None

    def prepare(self, model, caches, latency) -> None:
        super().prepare(model, caches, latency)
        self._model = model
        self._latency = latency

    def decide(self, tokens, session_id, caches, loads, now) -> RouteDecision:
        if not isinstance(tokens, TokenSeq):
            tokens = as_token_array(tokens)
        self._bind(caches)
        lookup = self._directory.lookup(tokens, limit=len(tokens) - 1)
        hits = self._hits(tokens, caches, lookup=lookup)
        replica = self._select(hits, loads)
        transfer = self._plan_transfer(tokens, caches, hits, lookup, replica)
        decision = RouteDecision(replica, transfer)
        if sink.SINK is not None:
            sink.SINK("route", self, decision, session_id)
        return decision

    def _plan_transfer(
        self,
        tokens: np.ndarray,
        caches: Sequence[Any],
        hits: dict[int, int],
        lookup: DirectoryLookup,
        target: int,
    ) -> Optional[TransferSpec]:
        if not self.transfer_enabled or self._model is None or self._latency is None:
            return None
        model, latency = self._model, self._latency
        if not getattr(model, "has_recurrent_layers", False):
            return None  # only checkpointed prefixes travel self-contained
        if not hasattr(caches[target], "receive_state_transfer"):
            return None  # target has no second-tier landing zone
        local = hits.get(target, 0)
        # Is any other holder deep enough to be worth a transfer?  Read the
        # path in place; only then build the maps the source choice and the
        # split planner read.
        floor = local + self.transfer_min_tokens
        for depth, holders in lookup.checkpoints():
            if depth < floor:
                return None
            if len(holders) > 1 or target not in holders:
                break
        else:
            return None
        source, depth = -1, local
        for replica, ckpt_depth in lookup.ckpt_depth.items():
            if replica != target and ckpt_depth > depth:
                source, depth = replica, ckpt_depth
        if source < 0 or depth - local < self.transfer_min_tokens:
            return None
        plan = plan_split(
            model,
            latency,
            len(tokens),
            local,
            lookup.ckpt_depths.get(source, (depth,)),
            min_tokens=self.transfer_min_tokens,
            allow_split=self.split_enabled,
        )
        if plan is None or plan.mode == "recompute":
            self._bump("chose_recompute")
            return None
        if plan.mode == "load":
            self._bump("chose_load")
            return TransferSpec(
                source=source,
                target=target,
                tokens=tokens[:depth].copy(),
                nbytes=int(plan.nbytes),
            )
        self._bump("chose_split")
        return SplitSpec(
            source=source,
            target=target,
            tokens=tokens[: plan.depth].copy(),
            nbytes=int(plan.nbytes),
            split_depth=plan.depth,
            total_len=len(tokens),
            tail_flops=plan.tail_flops,
            head_flops=plan.head_flops,
        )


class HierarchicalRouter(PrefixAffinityRouter):
    """Two-tier (rack/region) prefix routing for large fleets.

    Replicas are grouped into racks of ``rack_size`` consecutive indices
    (mid-run joins extend the last rack or open a new one).  Tier 1 picks
    the rack whose best replica holds the deepest prefix, breaking ties
    toward the lightest rack; tier 2 applies the usual affinity/spill
    rule *within* that rack only, so an overloaded preferred replica
    spills to a rack-mate — which shares top-of-rack bandwidth and warms
    a nearby cache — instead of scattering the session across the fleet.
    Cold requests (no cached prefix anywhere) fall back to the global
    least-loaded pick, seeding racks evenly.

    ``rack_max_imbalance`` bounds the tier-2 spill (defaults to
    ``max_imbalance``).  Fleets no larger than one rack degrade to plain
    :class:`PrefixAffinityRouter` behaviour by construction.
    """

    name = "hierarchical"

    def __init__(
        self,
        rack_size: int = 8,
        max_imbalance: int = 4,
        rack_max_imbalance: Optional[int] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(max_imbalance=max_imbalance, **kwargs)
        if rack_size < 1:
            raise ValueError(f"rack_size must be >= 1, got {rack_size}")
        if rack_max_imbalance is None:
            rack_max_imbalance = max_imbalance
        if rack_max_imbalance < 0:
            raise ValueError(
                f"rack_max_imbalance must be non-negative, got {rack_max_imbalance}"
            )
        self.rack_size = rack_size
        self.rack_max_imbalance = rack_max_imbalance
        self._rack_rotation = 0

    def rack_of(self, replica: int) -> int:
        return replica // self.rack_size

    def _scope(self, hits: dict[int, int], loads: Sequence[int]) -> tuple:
        """Tier 1: the rack of the deepest hit (ties toward the lightest
        rack, then the lowest), compared among the racks that hold it."""
        size = self.rack_size
        if len(loads) <= size:
            return super()._scope(hits, loads)
        deepest = max(hits.values())
        racks = {i // size for i, hit in hits.items() if hit == deepest}
        start = size * max(
            racks, key=lambda rack: (-min(loads[rack * size : (rack + 1) * size]), -rack)
        )
        holders = {i: hit for i, hit in hits.items() if start <= i < start + size}
        pool = loads[start : start + size]
        return holders, pool, start, self.rack_max_imbalance, self._pick_rack_mate, "rack_"

    def _pick_rack_mate(self, rack_loads: Sequence[int]) -> int:
        """Spill stays rack-local: least-loaded rack-mate, rotating ties."""
        self._rack_rotation += 1
        return pick_least_loaded(rack_loads, self._rack_rotation - 1)

    def reset(self) -> None:
        super().reset()
        self._rack_rotation = 0


_ROUTERS = {
    "round_robin": RoundRobinRouter,
    "least_loaded": LeastLoadedRouter,
    "session_affinity": SessionAffinityRouter,
    "prefix_affinity": PrefixAffinityRouter,
    "directory": DirectoryRouter,
    "hierarchical": HierarchicalRouter,
}

ROUTER_NAMES: tuple[str, ...] = tuple(sorted(_ROUTERS))


def make_router(name: str, **kwargs: Any) -> Router:
    """Instantiate a router by name (see :data:`ROUTER_NAMES`)."""
    try:
        factory = _ROUTERS[name]
    except KeyError:
        raise KeyError(f"unknown router {name!r}; known: {ROUTER_NAMES}") from None
    return factory(**kwargs)
