"""Cluster steering primitives shared by the kernel and the cluster layer.

These types sit below :mod:`repro.cluster` so the simulation kernel can
execute steering decisions without importing the router package (which
imports the kernel): a router *plans* (``RouteDecision`` with an optional
``TransferSpec``), the kernel *executes* (charges the transfer as an
asynchronous bandwidth/latency event, applies scenario control events,
and accounts everything into :class:`SteeringTelemetry`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.models.config import ModelConfig
from repro.models.flops import prefill_flops_table
from repro.models.memory import transfer_state_bytes

_SCENARIO_ACTIONS = ("fail", "drain", "join")


class NoRoutableReplicaError(RuntimeError):
    """Every replica is failed or drained: no destination can accept work.

    Raised by :func:`pick_least_loaded` (empty candidate set) and by the
    kernel's failover fallback instead of a bare ``min()`` ``ValueError``
    or an anonymous ``RuntimeError``, so callers can catch the condition
    specifically; the message says how the fleet got here (how many
    replicas exist and why none is routable) so an operator can act on it.
    """


def pick_least_loaded(loads: Sequence[int], rotation: int) -> int:
    """Index of the lowest load, ties broken by rotating round-robin.

    The one least-loaded selection rule, shared by
    :class:`repro.cluster.router.LeastLoadedRouter` (and the routers that
    spill through it) and the kernel's failover fallback, so the two can
    never silently diverge.  ``rotation`` is the caller-held tie-break
    counter (increment it after each pick).  ``loads`` (a list or tuple)
    is only read: the pick is the ``rotation % ties``-th tied index.
    """
    if not loads:
        raise NoRoutableReplicaError(
            "cannot pick a replica from an empty candidate set: every "
            "replica has failed, drained, or was never attached"
        )
    floor = min(loads)
    index = loads.index(floor)
    for _ in range(rotation % loads.count(floor)):
        index = loads.index(floor, index + 1)
    return index


class GossipTransport:
    """The clock/scheduling surface a sharded directory gossips through.

    A transport supplies the virtual time updates are stamped with
    (:meth:`now`) and executes deferred flush callbacks at a requested
    time (:meth:`schedule`).  The kernel implements it over its event
    queue (``EventKind.DIRECTORY_SYNC`` events charged on the virtual
    clock); :class:`~repro.cluster.sharded_directory.ManualGossipTransport`
    implements it over a hand-cranked queue for standalone tests.  Like
    :class:`TransferSpec`, it lives below :mod:`repro.cluster` so the
    kernel can drive directory propagation without importing the router
    package.
    """

    def now(self) -> float:
        raise NotImplementedError

    def schedule(self, time: float, callback: Callable[[float], None]) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class TransferSpec:
    """One planned cross-replica state transfer.

    ``tokens`` is the prefix whose self-contained state (recurrent
    checkpoint plus the prefix's KVs, ``nbytes`` total) is copied from
    ``source``'s cache into ``target``'s second-tier store; the request
    that triggered the plan is parked until the transfer event completes.
    State is always replicated, never torn out of the source.
    """

    source: int
    target: int
    tokens: np.ndarray
    nbytes: int

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise ValueError("transfer source and target must differ")
        if self.nbytes <= 0:
            raise ValueError(f"transfer nbytes must be positive, got {self.nbytes}")
        if len(self.tokens) == 0:
            raise ValueError("cannot transfer an empty prefix")


@dataclass(frozen=True)
class SplitSpec(TransferSpec):
    """A split-point transfer: ship the prefix head, recompute the tail.

    ``tokens`` (and ``nbytes``) describe the *head* — the ``split_depth``
    deepest checkpointed prefix worth shipping — while the request's
    remaining ``total_len - split_depth`` tokens are recomputed on the
    target concurrently with the transfer.  Unlike a plain
    :class:`TransferSpec`, the request is *not* parked: the kernel
    enqueues it immediately and charges its prefill as
    ``overhead + max(transfer_remaining + head_fetch, tail_compute) +
    merge``.  ``tail_flops``/``head_flops`` carry the planner's FLOP
    breakdown so the kernel never re-derives the model math.
    """

    split_depth: int = 0
    total_len: int = 0
    tail_flops: float = 0.0
    head_flops: float = 0.0

    def __post_init__(self) -> None:
        TransferSpec.__post_init__(self)
        if self.split_depth != len(self.tokens):
            raise ValueError(
                f"split_depth must equal len(tokens), got {self.split_depth} "
                f"for {len(self.tokens)} head tokens"
            )
        if not 0 < self.split_depth < self.total_len:
            raise ValueError(
                f"split_depth must lie strictly inside the request "
                f"({self.split_depth} of {self.total_len})"
            )
        if self.tail_flops < 0 or self.head_flops < 0:
            raise ValueError("split FLOP terms must be non-negative")


@dataclass(frozen=True)
class RouteDecision:
    """A router's full verdict for one arrival: replica plus optional transfer."""

    replica: int
    transfer: Optional[TransferSpec] = None


@dataclass(frozen=True)
class SplitPlan:
    """Outcome of the split-point cost model for one steering opportunity.

    ``mode`` is one of ``"recompute"`` (no transfer — prefill everything
    past the local hit), ``"load"`` (PR-4 all-or-nothing: ship the deepest
    checkpoint, park the request) or ``"split"`` (ship ``depth`` tokens of
    head state while the tail recomputes in parallel).  The ``est_*``
    fields are the model's TTFT-proxy estimates (seconds past the shared
    prefill overhead) for each arm; ``est_split`` is ``None`` when no
    interior candidate existed.
    """

    mode: str
    depth: int
    nbytes: int
    tail_flops: float
    head_flops: float
    est_recompute: float
    est_load: float
    est_split: Optional[float] = None


def plan_split(
    model: ModelConfig,
    latency: Any,
    total_len: int,
    local_hit: int,
    ckpt_depths: Sequence[int],
    *,
    min_tokens: int = 1,
    allow_split: bool = True,
) -> Optional[SplitPlan]:
    """Pick compute, load, or a split point for one steering opportunity.

    ``ckpt_depths`` holds the source replica's checkpointed prefix depths
    of the query (from a directory lookup).  The endpoint comparison —
    full recompute versus shipping the deepest checkpoint — reproduces the
    PR-4 all-or-nothing rule expression-for-expression, so with
    ``allow_split=False`` (or when no interior checkpoint exists) the
    returned plan is byte-identical to the legacy decision.  Interior
    candidates are priced as the two halves overlapped::

        est_split(d) = max(transfer(d) + secondary_fetch(d), tail_flops(d))
                       + split_merge

    and an interior depth is chosen only when strictly cheaper than the
    winning endpoint.  Returns ``None`` when no usable candidate depth
    survives the ``min_tokens`` gate (nothing worth planning).
    """
    limit = total_len - 1  # the final input token must always be prefilled
    usable = sorted(d for d in ckpt_depths if local_hit < d <= limit)
    if not usable or usable[-1] - local_hit < min_tokens:
        return None
    depth = usable[-1]
    eff = latency.effective_flops_per_s
    secondary_bw = latency.secondary_fetch_bandwidth_bytes_per_s
    # Suffix FLOPs are differences of this table's entries, as
    # model_suffix_prefill_flops takes them (the depths above are in range).
    flops = prefill_flops_table(model)
    total_flops = flops[total_len]

    # -- endpoint arms: the PR-4 all-or-nothing comparison, verbatim ----
    nbytes = transfer_state_bytes(model, depth)
    load_seconds = (
        latency.transfer_seconds(nbytes) + nbytes / secondary_bw
    )
    depth_tail_flops = total_flops - flops[depth]
    saved_flops = (total_flops - flops[local_hit]) - depth_tail_flops
    recompute_seconds = saved_flops / eff
    load_wins = load_seconds < recompute_seconds

    tail_at_depth = depth_tail_flops / eff
    est_recompute = recompute_seconds + tail_at_depth  # == tail(local_hit)
    est_load = load_seconds + tail_at_depth

    # -- interior arms: head transfer overlapped with tail recompute ----
    best: Optional[tuple[float, int, int, float]] = None  # est, d, nb, tail
    if allow_split:
        for d in usable[:-1]:
            if d - local_hit < min_tokens:
                continue
            nb = transfer_state_bytes(model, d)
            load_arm = latency.transfer_seconds(nb) + nb / secondary_bw
            tail_flops = total_flops - flops[d]
            tail_arm = tail_flops / eff
            est = max(load_arm, tail_arm) + latency.split_merge_s
            # Deepest among equal-cost candidates: ship more state when the
            # estimate ties (monotone in bandwidth; fewer FLOPs recomputed).
            if best is None or est <= best[0]:
                best = (est, d, nb, tail_flops)

    endpoint_est = est_load if load_wins else est_recompute
    if best is not None and best[0] < endpoint_est:
        est, d, nb, tail_flops = best
        return SplitPlan(
            mode="split",
            depth=d,
            nbytes=nb,
            tail_flops=tail_flops,
            head_flops=flops[d] - flops[local_hit],
            est_recompute=est_recompute,
            est_load=est_load,
            est_split=est,
        )
    return SplitPlan(
        mode="load" if load_wins else "recompute",
        depth=depth if load_wins else local_hit,
        nbytes=nbytes if load_wins else 0,
        tail_flops=depth_tail_flops if load_wins else saved_flops + depth_tail_flops,
        head_flops=0.0,
        est_recompute=est_recompute,
        est_load=est_load,
        est_split=None if best is None else best[0],
    )


def split_prefill_seconds(
    spec: SplitSpec,
    done: float,
    hit_tokens: int,
    now: float,
    base: float,
    latency: Any,
    telemetry: "SteeringTelemetry",
) -> float:
    """Overlapped prefill charge of a split-steered request at service start.

    ``spec``'s head lands on the target at ``done``; the request's session
    found ``hit_tokens`` locally and would pay ``base`` serving purely from
    local state.  The two halves run concurrently — the head transfer
    (whatever of it is still in flight, plus the secondary fetch once it
    lands) and the tail recompute — so completion is priced with
    :func:`plan_split`'s interior-arm formula, at actual service time::

        overhead + max(transfer_remaining + head_fetch, tail_compute)
        + split_merge

    and the cheaper of that and ``base`` is charged (the plan was made from
    a pre-queue estimate, so local state may meanwhile have grown past the
    shipped head, or the overlap may simply not pay off any more).  The
    session's recorded ``hit_tokens``/``reused_bytes`` keep reporting
    local-cache truth — the split's benefit shows up in TTFT and in the
    overlap telemetry, not as a synthetic cache hit.
    """
    if now >= done:
        # The head landed while the request was still queued: begin()
        # already promoted the shipped state through the tiering path and
        # ``base`` priced its secondary fetch — the transfer hid entirely
        # behind queue wait.
        telemetry.bump("splits_hidden")
        return base
    if hit_tokens >= spec.split_depth:
        # Local state grew at least as deep as the shipped head while the
        # request queued: the transfer buys nothing extra.
        telemetry.bump("splits_ignored")
        return base
    load_arm = (done - now) + spec.nbytes / (
        latency.secondary_fetch_bandwidth_bytes_per_s
    )
    tail_arm = spec.tail_flops / latency.effective_flops_per_s
    overlapped = (
        latency.prefill_overhead_s + max(load_arm, tail_arm)
        + latency.split_merge_s
    )
    if overlapped >= base:
        telemetry.bump("splits_ignored")
        return base
    telemetry.bump("splits_overlapped")
    telemetry.overlap_seconds_saved += base - overlapped
    return overlapped


@dataclass(frozen=True)
class ScenarioEvent:
    """One entry of a cluster scenario schedule.

    Actions
    -------
    ``fail``
        Replica ``replica`` dies at ``time``: its in-flight sessions are
        aborted (the transactional abort path), its cache is reset, the
        routing directory is invalidated for it, and every orphaned
        request is re-routed to a surviving replica.
    ``drain``
        Replica ``replica`` stops receiving new requests but finishes its
        queued and running work; its cache stays warm (it can still serve
        as a transfer source).
    ``join``
        A fresh replica built by ``cache_factory()`` comes up at ``time``
        and immediately becomes routable.
    """

    time: float
    action: str
    replica: Optional[int] = None
    cache_factory: Optional[Callable[[], Any]] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.action not in _SCENARIO_ACTIONS:
            raise ValueError(
                f"unknown scenario action {self.action!r}; known: {_SCENARIO_ACTIONS}"
            )
        if self.time < 0:
            raise ValueError(f"scenario time must be non-negative, got {self.time}")
        if self.action in ("fail", "drain"):
            if self.replica is None:
                raise ValueError(f"{self.action!r} scenario events need a replica index")
            if self.replica < 0:
                raise ValueError(
                    f"scenario replica index must be non-negative, got {self.replica}"
                )
        if self.action == "join" and self.cache_factory is None:
            raise ValueError("'join' scenario events need a cache_factory")

    def to_dict(self) -> dict:
        """JSON-friendly view (the factory is reduced to its name)."""
        out: dict = {"time": self.time, "action": self.action}
        if self.replica is not None:
            out["replica"] = self.replica
        if self.name is not None:
            out["name"] = self.name
        if self.cache_factory is not None:
            out["cache_factory"] = getattr(
                self.cache_factory, "__name__", repr(self.cache_factory)
            )
        return out


@dataclass
class SteeringTelemetry:
    """Everything the kernel measured about steering during one run.

    Per-replica lists are indexed like the kernel's replica lists and grow
    when replicas join mid-run.  ``counters`` holds scalar decision and
    scenario counters; see :meth:`to_dict` for the exported shape.
    """

    transfer_bytes_in: list[int] = field(default_factory=list)
    transfer_bytes_out: list[int] = field(default_factory=list)
    transfer_seconds_in: list[float] = field(default_factory=list)
    transfers_in: list[int] = field(default_factory=list)
    transfers_out: list[int] = field(default_factory=list)
    #: Seconds each replica's outbound link spent occupied by transfers
    #: (serialized per-source pricing: concurrent transfers queue behind
    #: one another instead of each getting the full link bandwidth).
    link_busy_seconds: list[float] = field(default_factory=list)
    #: Total seconds transfers spent queued waiting for a busy source link.
    link_wait_seconds: float = 0.0
    #: TTFT seconds split-point overlap shaved off versus the serialized
    #: (local-recompute) prefill each split request would otherwise pay.
    overlap_seconds_saved: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)

    def add_replica(self) -> None:
        self.transfer_bytes_in.append(0)
        self.transfer_bytes_out.append(0)
        self.transfer_seconds_in.append(0.0)
        self.transfers_in.append(0)
        self.transfers_out.append(0)
        self.link_busy_seconds.append(0.0)

    def bump(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def record_transfer(
        self, source: int, target: int, nbytes: int, seconds: float
    ) -> None:
        self.transfer_bytes_out[source] += nbytes
        self.transfer_bytes_in[target] += nbytes
        self.transfer_seconds_in[target] += seconds
        self.transfers_out[source] += 1
        self.transfers_in[target] += 1
        self.bump("transfers_completed")

    def record_link(self, source: int, busy_seconds: float, wait_seconds: float) -> None:
        """Account one charged transfer on ``source``'s outbound link."""
        self.link_busy_seconds[source] += busy_seconds
        self.link_wait_seconds += wait_seconds

    @property
    def total_transfer_bytes(self) -> int:
        return sum(self.transfer_bytes_in)

    def check_conservation(self, transfer_bandwidth_bytes_per_s: float) -> None:
        """Assert transfer bytes/seconds conservation (link pricing sanity).

        With serialized per-source-link pricing, a source link can never
        move bytes faster than its bandwidth: the seconds it spent busy
        must cover at least ``bytes_out / bandwidth`` (strictly more when
        per-transfer launch latency is non-zero).  A violation means some
        transfers were priced in parallel on one link — the N-transfers ×
        full-bandwidth bug this check exists to catch.  Completed-transfer
        bytes must also balance across the fleet: every byte that arrived
        somewhere left somewhere.
        """
        if sum(self.transfer_bytes_in) != sum(self.transfer_bytes_out):
            raise AssertionError(
                f"transfer byte imbalance: {sum(self.transfer_bytes_in)} in "
                f"vs {sum(self.transfer_bytes_out)} out"
            )
        for source, busy in enumerate(self.link_busy_seconds):
            need = self.transfer_bytes_out[source] / transfer_bandwidth_bytes_per_s
            if busy + 1e-9 < need:
                raise AssertionError(
                    f"source link {source} moved {self.transfer_bytes_out[source]} "
                    f"bytes in {busy:.6f}s busy time but needs >= {need:.6f}s "
                    f"at {transfer_bandwidth_bytes_per_s:.3g} B/s — concurrent "
                    f"transfers were priced at more than aggregate bandwidth"
                )

    def to_dict(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "link_wait_seconds": self.link_wait_seconds,
            "overlap_seconds_saved": self.overlap_seconds_saved,
            "per_replica": {
                "transfer_bytes_in": list(self.transfer_bytes_in),
                "transfer_bytes_out": list(self.transfer_bytes_out),
                "transfer_seconds_in": list(self.transfer_seconds_in),
                "transfers_in": list(self.transfers_in),
                "transfers_out": list(self.transfers_out),
                "link_busy_seconds": list(self.link_busy_seconds),
            },
        }
