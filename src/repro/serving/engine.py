"""Serve the executable NumPy hybrid model through a Marconi cache.

This is the end-to-end correctness harness for the paper's premise that
"prefix reusing is exact and does not change the LLM output": requests are
served with real model states stored in (and reused from) the cache, and
integration tests assert the generated tokens match a cache-less server's
bit for bit.

Flow per request (mirroring section 4):

1. ``cache.begin`` — finds the deepest reusable checkpoint, commits the
   input path, and reports any branch-point positions to materialize.
2. Prefill from the reused state with ``checkpoint_positions`` set to the
   branch points; attach the materialized states to the session.
3. Decode (greedy, or seeded temperature sampling via
   :class:`DecodeParams`).
4. ``session.commit`` with the final state as the last-decoded-token
   payload.  The ``with`` block aborts the session — unpinning the path
   and rolling back the speculative insert — if any step fails.

The flow is exposed two ways: :meth:`ExactReuseServer.serve` runs it to
completion synchronously, and :meth:`ExactReuseServer.serve_steps` is the
resumable generator underneath it — it yields after every decoded token,
which is what lets the asyncio gateway interleave many in-flight requests
over one model and cancel any of them mid-decode (closing the generator
raises ``GeneratorExit`` inside the ``with`` block, so the session aborts
and no pins leak).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.core.cache import MarconiCache
from repro.core.interfaces import Clock, as_token_array, monotonic_counter
from repro.models.config import ModelConfig
from repro.nn.hybrid import HybridModel
from repro.nn.sampling import greedy_token, sample_token
from repro.nn.states import ModelState


@dataclass(frozen=True)
class DecodeParams:
    """Token-selection parameters for one request.

    ``temperature <= 0`` means greedy (argmax) decoding — fully
    deterministic, and the only mode the response cache is allowed to
    serve from (mnimi-style request-level reuse is a correctness
    statement only when re-running the request could not produce a
    different answer).  ``temperature > 0`` samples; with a ``seed`` the
    request is reproducible in isolation but still *not* response-
    cacheable, because two sampled calls are supposed to be independent
    draws.
    """

    temperature: float = 0.0
    seed: Optional[int] = None

    @property
    def deterministic(self) -> bool:
        """True when decoding is greedy (response-cacheable)."""
        return self.temperature <= 0.0


GREEDY = DecodeParams()


@dataclass
class ServedRequest:
    """Result of one served request."""

    output_tokens: np.ndarray
    hit_tokens: int
    prefilled_tokens: int
    full_sequence: np.ndarray


ServeSteps = Generator[int, None, ServedRequest]


def checked_request(
    input_tokens: np.ndarray, n_output: int, forced_outputs: Optional[np.ndarray]
) -> tuple[np.ndarray, int, Optional[np.ndarray]]:
    """What every ``serve_steps`` does first: coerce and validate the request;
    ``forced_outputs``, when given, overrides ``n_output``."""
    input_tokens = as_token_array(input_tokens)
    if len(input_tokens) == 0:
        raise ValueError(
            "cannot serve an empty request: input_tokens must contain "
            "at least one token"
        )
    if forced_outputs is not None:
        forced_outputs = as_token_array(forced_outputs)
        n_output = len(forced_outputs)
    if n_output < 0:
        raise ValueError(f"n_output must be >= 0, got {n_output}")
    return input_tokens, n_output, forced_outputs


class ExactReuseServer:
    """A minimal single-worker server: one hybrid model + one Marconi cache.

    ``clock`` injects the time source used to stamp cache accesses and
    admissions.  The default is a private monotone counter (timestamps
    order accesses; offline correctness tests need nothing more), and the
    live gateway passes ``time.monotonic`` so served timestamps are
    meaningful under real concurrency.
    """

    def __init__(
        self,
        config: ModelConfig,
        capacity_bytes: int,
        *,
        seed: int = 0,
        eviction: str = "flop_aware",
        alpha: float | None = 1.0,
        prefill_mode: str = "exact",
        chunk_size: int = 64,
        clock: Clock | None = None,
    ) -> None:
        self.model = HybridModel(config, seed=seed)
        self.cache = MarconiCache(
            config,
            capacity_bytes,
            eviction=eviction,
            alpha=alpha,
            store_states=True,
        )
        self.prefill_mode = prefill_mode
        self.chunk_size = chunk_size
        self.clock: Clock = clock if clock is not None else monotonic_counter()

    def serve(
        self,
        input_tokens: np.ndarray,
        n_output: int,
        *,
        params: DecodeParams = GREEDY,
        forced_outputs: Optional[np.ndarray] = None,
    ) -> ServedRequest:
        """Serve one request to completion: begin, prefill, decode, commit."""
        steps = self.serve_steps(
            input_tokens, n_output, params=params, forced_outputs=forced_outputs
        )
        while True:
            try:
                next(steps)
            except StopIteration as stop:
                return stop.value

    def serve_steps(
        self,
        input_tokens: np.ndarray,
        n_output: int,
        *,
        params: DecodeParams = GREEDY,
        forced_outputs: Optional[np.ndarray] = None,
    ) -> ServeSteps:
        """The request flow as a generator: yields each decoded token.

        The caller drives decoding one token at a time (``next``) and
        receives the :class:`ServedRequest` as the generator's return
        value.  Closing the generator early aborts the open session —
        pins released, speculative insert rolled back — which is the
        cancellation path the gateway relies on.

        ``forced_outputs`` replaces token *selection* with a given output
        sequence (teacher forcing) while still running the real decode
        steps, so trace replays keep every committed sequence aligned
        with the trace's next-round inputs.
        """
        input_tokens, n_output, forced = checked_request(
            input_tokens, n_output, forced_outputs
        )
        if forced is not None:
            forced = forced.tolist()  # Python ints, converted once
        rng = (
            np.random.default_rng(params.seed)
            if params.temperature > 0.0
            else None
        )
        with self.cache.begin(input_tokens, self.clock()) as session:
            hit = session.hit_tokens
            payload: ModelState | None = session.state_payload
            if hit > 0 and payload is None:
                # The checkpoint's payload is unavailable (e.g. admitted
                # without states); fall back to a full prefill —
                # correctness first.
                hit = 0
            state = payload.clone() if (hit > 0 and payload is not None) else None

            # Branch points the admission policy asked us to materialize.
            # In chunked mode a checkpoint may land before the requested
            # position; only exact matches are attachable.
            # chunked_rollforward closes the gap (the paper's optional
            # roll-forward kernel) by rolling the snapped state forward to
            # the exact position.
            positions = tuple(p for p in session.checkpoint_positions if p > hit)
            result = self.model.prefill(
                input_tokens[hit:],
                state,
                checkpoint_positions=positions,
                mode=self.prefill_mode,
                chunk_size=self.chunk_size,
            )
            for position, checkpoint in result.checkpoints.items():
                if position in positions:
                    session.attach_branch_state(position, checkpoint)

            logits = result.logits[-1]
            current = result.state
            output: list[int] = []
            for step in range(n_output):
                if forced is not None:
                    token = forced[step]
                elif rng is not None:
                    token = sample_token(logits, rng, params.temperature)
                else:
                    token = greedy_token(logits)
                output.append(token)
                yield token
                logits, current = self.model.decode_step(token, current)
            output_tokens = np.asarray(output, dtype=np.int32)
            full = input_tokens  # n_output == 0: exactly the input is committed
            if output:
                full = np.concatenate([input_tokens, output_tokens])
            session.commit(full, self.clock(), state_payload=current.clone())
        return ServedRequest(
            output_tokens=output_tokens,
            hit_tokens=hit,
            prefilled_tokens=len(input_tokens) - hit,
            full_sequence=full,
        )
