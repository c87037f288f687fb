"""Micro-benchmark: the live gateway's step loop on ``gateway_live``'s closed
loop (``bench_e2e``'s saturate replay, untraced).

A cache-only serve's echo steps touch no cache and make no decision, so the
step loop jumps every sweep in which each slot would only echo, and a jump
counts as one sweep toward the trip bound.  One replay feeds two floors:

* serve-iterator resumptions per round, counted by patching the iterator
  class's ``__next__`` (a wrapping generator would hide ``silent`` and turn
  the jump off): ≈7.5 per round with the jump, ≈707 when every echo is a
  resumption;
* loop trips per round, counted by swapping the gateway module's
  ``asyncio`` for one whose ``sleep`` counts calls: ≈2.5 per round when a
  trip follows only a sweep that ended a request or freed a slot, ≈13.4
  when a jump over ``k`` echoes counts as ``k`` sweeps.

The loop's wall time per round is printed, not asserted.
"""

import asyncio
import sys
import time
import types
from pathlib import Path

import pytest

from repro.serving import gateway as gateway_module
from repro.serving.replay import _EchoSteps

_REPO = str(Path(__file__).resolve().parents[1])
if _REPO not in sys.path:  # bench_e2e, under a bare ``pytest`` too
    sys.path.append(_REPO)

SEED = 11
# The benchmark's own size: 250 closed-loop sessions, 977 rounds at seed 11.
# Smaller scales end on a long tail with fewer clients than slots, where
# every sweep trips and no jump is possible.
SCALE = 1.0
RESUMPTIONS_PER_ROUND_BOUND = 10
TRIPS_PER_ROUND_BOUND = 3


@pytest.fixture(scope="module")
def saturate_replay():
    """Replay the saturated closed loop once; return its rounds, serve
    resumptions, loop trips and step-loop seconds."""
    from bench_e2e.workloads import WORKLOADS

    counts = {"resumptions": 0, "trips": 0}
    step = _EchoSteps.__next__

    def counted(steps):
        counts["resumptions"] += 1
        return step(steps)

    async def sleep(delay, *args, **kwargs):
        counts["trips"] += 1
        return await asyncio.sleep(delay, *args, **kwargs)

    counting_asyncio = types.SimpleNamespace(**{**vars(asyncio), "sleep": sleep})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_EchoSteps, "__next__", counted)
        patch.setattr(gateway_module, "asyncio", counting_asyncio)
        workload = WORKLOADS["gateway_live"]
        system = workload.build(SEED, SCALE)
        started = time.perf_counter()
        rep = workload.replay(system, None)
        elapsed = time.perf_counter() - started
    assert not rep.verdict.failures, rep.verdict.failures
    print(
        f"\ngateway_live seed {SEED}: {rep.rounds} rounds, step loop "
        f"{1e6 * elapsed / rep.rounds:.0f} us/round"
    )
    return rep.rounds, counts["resumptions"], counts["trips"]


def test_silent_sweeps_are_jumped(saturate_replay):
    rounds, resumptions, _ = saturate_replay
    per_round = resumptions / rounds
    print(f"\n{resumptions} serve resumptions ({per_round:.2f}/round)")
    assert per_round <= RESUMPTIONS_PER_ROUND_BOUND, (
        f"{per_round:.1f} serve resumptions per round "
        f"(floor {RESUMPTIONS_PER_ROUND_BOUND}): silent sweeps are stepped"
    )


def test_trips_only_where_a_trip_can_wake_someone(saturate_replay):
    rounds, _, trips = saturate_replay
    per_round = trips / rounds
    print(f"\n{trips} loop trips ({per_round:.2f}/round)")
    assert per_round <= TRIPS_PER_ROUND_BOUND, (
        f"{per_round:.1f} loop trips per round (floor {TRIPS_PER_ROUND_BOUND}): "
        "the step loop trips where no submitter can wake"
    )
