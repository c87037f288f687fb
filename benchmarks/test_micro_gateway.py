"""Micro-benchmark: the live gateway's step loop on ``gateway_live``'s closed
loop (``bench_e2e``'s saturate replay, untraced).

A cache-only serve's echo steps touch no cache and make no decision, so the
step loop jumps every sweep in which each slot would only echo.  The floor
counts serve-iterator resumptions per round, by patching the iterator
class's ``__next__`` (a wrapping generator would hide ``silent`` and turn
the jump off): ≈7.5 per round with the jump, ≈707 when every echo is a
resumption.  The loop's wall time per round is printed, not asserted.
"""

import sys
import time
from pathlib import Path

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


def test_silent_sweeps_are_jumped(monkeypatch):
    from bench_e2e.workloads import WORKLOADS

    resumptions = 0
    step = _EchoSteps.__next__

    def counted(steps):
        nonlocal resumptions
        resumptions += 1
        return step(steps)

    monkeypatch.setattr(_EchoSteps, "__next__", counted)
    workload = WORKLOADS["gateway_live"]
    system = workload.build(SEED, SCALE)
    started = time.perf_counter()
    rep = workload.replay(system, None)
    elapsed = time.perf_counter() - started
    assert not rep.verdict.failures, rep.verdict.failures
    per_round = resumptions / rep.rounds
    print(
        f"\ngateway_live seed {SEED}: {rep.rounds} rounds, {resumptions} serve "
        f"resumptions ({per_round:.2f}/round), step loop "
        f"{1e6 * elapsed / rep.rounds:.0f} us/round"
    )
    assert per_round <= RESUMPTIONS_PER_ROUND_BOUND, (
        f"{per_round:.1f} serve resumptions per round "
        f"(floor {RESUMPTIONS_PER_ROUND_BOUND}): silent sweeps are stepped"
    )
