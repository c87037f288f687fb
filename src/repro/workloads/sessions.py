"""Common machinery for building multi-round session traces.

Every workload (LMSys-like chat, ShareGPT-like chat, SWE-Bench-like agent
trajectories) is an instance of the same generative skeleton:

* sessions arrive as a Poisson process at ``session_rate`` per second;
* every session optionally opens with a *global preamble* shared by all
  sessions of the workload (a deployment-wide system prompt), followed by
  an optional *shared* template segment (task instructions / few-shot
  preamble / document) drawn from a Zipf-popular pool — both are the
  cross-session "purely input" reuse class, at two nesting levels;
* each round appends a fresh input segment (user turn or environment
  observation) and a fresh output segment (model response or agent
  action) — the within-session "input + output" reuse class;
* rounds stop at the workload's round count or when the accumulated
  context exceeds ``max_context_tokens`` (mirroring context-window limits).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from repro.workloads.arrivals import PoissonProcess, exponential_think_times
from repro.workloads.distributions import GeometricCount, LogNormalLength
from repro.workloads.trace import TraceSession, TraceStream
from repro.workloads.vocab import SharedSegmentPool, fresh_tokens


@dataclass(frozen=True)
class SessionShape:
    """Workload-specific distributional knobs (see module docstring)."""

    name: str
    rounds: GeometricCount
    first_turn: LogNormalLength
    later_turn: LogNormalLength
    output: LogNormalLength
    shared_prefix_prob: float
    n_templates: int
    template_length: LogNormalLength
    template_zipf: float = 1.2
    max_context_tokens: int = 32768
    global_preamble_tokens: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.shared_prefix_prob <= 1.0:
            raise ValueError(
                f"shared_prefix_prob must be in [0, 1], got {self.shared_prefix_prob}"
            )
        if self.max_context_tokens <= 0:
            raise ValueError("max_context_tokens must be positive")
        if self.global_preamble_tokens < 0:
            raise ValueError("global_preamble_tokens must be non-negative")


@dataclass(frozen=True)
class WorkloadParams:
    """Scale and timing knobs shared by all workloads.

    ``session_rate`` and ``mean_think_s`` are the two arrival-pattern axes
    the paper sweeps in Fig. 13: sessions start as a homogeneous Poisson
    process at ``session_rate``, and each later round follows its
    predecessor after an exponential think time of mean ``mean_think_s``.
    """

    n_sessions: int = 100
    session_rate: float = 1.0
    mean_think_s: float = 5.0
    seed: int = 0
    vocab_size: int = 32000

    def __post_init__(self) -> None:
        # The generators trust these: a NaN or inf time would reach the
        # kernel as a NaN TTFT, a float count or seed as a numpy error.  A
        # numpy integer is kept as the Python int it equals, so seed
        # arithmetic and the JSON metadata see one type.
        for name in ("n_sessions", "seed", "vocab_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n_sessions <= 0:
            raise ValueError(f"n_sessions must be positive, got {self.n_sessions}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # NaN fails both bounds.
        if not 0 < self.session_rate < math.inf:
            raise ValueError(
                f"session_rate must be positive and finite, got {self.session_rate!r}"
            )
        if not 0 <= self.mean_think_s < math.inf:
            raise ValueError(
                f"mean_think_s must be non-negative and finite, got {self.mean_think_s!r}"
            )
        if self.vocab_size <= 1:
            raise ValueError(f"vocab_size must be > 1, got {self.vocab_size}")


def _pool_seed(shape_name: str, seed: int) -> int:
    """Stable integer seed for the template pool of one (workload, seed) pair.

    Template *content* is shared across traces with the same seed — two
    traces of the same workload can legitimately share system prompts —
    while differing workloads never collide.
    """
    return (zlib.crc32(shape_name.encode()) << 16) ^ (seed & 0xFFFF_FFFF)


def template_pool(shape, params: WorkloadParams) -> SharedSegmentPool:
    """The Zipf-popular template pool of one (workload, seed) pair."""
    return SharedSegmentPool(
        base_seed=_pool_seed(shape.name, params.seed),
        n_templates=shape.n_templates,
        length=shape.template_length,
        vocab_size=params.vocab_size,
        zipf_exponent=shape.template_zipf,
    )


def _trace_metadata(params: WorkloadParams) -> dict:
    return {
        "n_sessions": params.n_sessions,
        "session_rate": params.session_rate,
        "mean_think_s": params.mean_think_s,
        "vocab_size": params.vocab_size,
    }


def _session_generator(shape: SessionShape, params: WorkloadParams):
    """Yield the trace's sessions lazily, one RNG stream, arrival order.

    This is the single generative path of the shape-driven workloads:
    :func:`stream_trace` wraps it, and a materialized trace is that stream
    collapsed.  Only the arrival-time vector (8 bytes per session) is
    held up front; token content is produced session by session.
    """
    rng = np.random.default_rng(params.seed)
    pool = template_pool(shape, params)
    preamble = global_preamble(shape, params)
    arrivals = PoissonProcess(params.session_rate).arrival_times(rng, params.n_sessions)
    for session_id in range(params.n_sessions):
        yield _build_session(
            session_id=session_id,
            arrival_time=float(arrivals[session_id]),
            shape=shape,
            params=params,
            pool=pool,
            preamble=preamble,
            rng=rng,
        )


def stream_trace(shape: SessionShape, params: WorkloadParams) -> TraceStream:
    """Lazily generate a workload trace (deterministic in seed, re-iterable)."""
    return TraceStream(
        name=shape.name,
        seed=params.seed,
        factory=lambda: _session_generator(shape, params),
        n_sessions=params.n_sessions,
        metadata=_trace_metadata(params),
    )


def global_preamble(shape: SessionShape, params: WorkloadParams) -> np.ndarray:
    """The deployment-wide shared prefix for one (workload, seed) pair.

    Deterministic in the same seed material as the template pool, so every
    session of a trace — and every trace sharing the seed — opens with the
    same tokens.
    """
    if shape.global_preamble_tokens == 0:
        return np.empty(0, dtype=np.int32)
    preamble_tag = zlib.crc32(b"global-preamble")
    rng = np.random.default_rng((_pool_seed(shape.name, params.seed), preamble_tag))
    return fresh_tokens(rng, shape.global_preamble_tokens, params.vocab_size)


def _build_session(
    session_id: int,
    arrival_time: float,
    shape: SessionShape,
    params: WorkloadParams,
    pool: SharedSegmentPool,
    preamble: np.ndarray,
    rng: np.random.Generator,
) -> TraceSession:
    target_rounds = shape.rounds.sample(rng)
    # The session's tokens in order, each segment written once, by the join
    # that builds its buffer: round 0's preamble (empty without one), pooled
    # template and fresh turn, then every round's output and next input.
    segments = [preamble]
    if rng.random() < shape.shared_prefix_prob:
        segments.append(pool.sample(rng))
    shared = sum(map(len, segments))  # round 0's input ahead of its fresh turn
    round_lengths: list[tuple[int, int]] = []
    context = 0
    for round_index in range(target_rounds):
        turn = shape.later_turn if round_index else shape.first_turn
        new_input = fresh_tokens(rng, turn.sample(rng), params.vocab_size)
        output = fresh_tokens(rng, shape.output.sample(rng), params.vocab_size)
        n_input = len(new_input) + (0 if round_index else shared)
        if round_index > 0 and context + n_input > shape.max_context_tokens:
            break
        segments += (new_input, output)
        round_lengths.append((n_input, len(output)))
        context += n_input + len(output)
    think_times = exponential_think_times(rng, len(round_lengths), params.mean_think_s)
    return TraceSession._from_segments(
        session_id, arrival_time, segments, round_lengths, think_times
    )
