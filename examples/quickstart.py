"""Quickstart: Marconi's prefix cache in fifty lines.

Demonstrates the two reuse classes from the paper's admission taxonomy:

* input + output reuse — a chat session whose every round extends the
  previous round's full sequence (hits immediately from round 2);
* purely-input reuse — distinct requests sharing a system prompt (the
  second occurrence checkpoints the branch, the third gets the hit).

This file drives the cache directly with a hand-rolled clock.  For
whole-trace replays under the analytic latency model, use the
kernel-backed engine functions instead — ``simulate_trace`` (FCFS,
``n_executors`` concurrent prefill slots), ``simulate_trace_iteration``
(chunked-prefill iteration batching, TBT tails), and ``simulate_cluster``
(N routed replicas) — each one configuration of
``repro.engine.kernel.SimulationKernel``; see ``examples/chatbot_serving.py``
and ``examples/cluster_routing.py``.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import MarconiCache, hybrid_7b

GB = 1e9
rng = np.random.default_rng(0)


def fresh(n: int) -> np.ndarray:
    return rng.integers(0, 32000, size=n, dtype=np.int32)


def main() -> None:
    model = hybrid_7b()  # the paper's 7B hybrid: 4 Attn / 24 SSM / 28 MLP
    cache = MarconiCache(model, capacity_bytes=int(20 * GB), alpha=1.0)
    clock = 0.0

    def serve(input_tokens: np.ndarray, n_output: int) -> np.ndarray:
        nonlocal clock
        clock += 1.0
        with cache.begin(input_tokens, clock) as session:
            print(
                f"  request of {len(input_tokens):5d} tokens: "
                f"hit {session.hit_tokens:5d} tokens "
                f"({100 * session.hit_rate:5.1f}%), "
                f"branch checkpoints at {session.checkpoint_positions or '—'}"
            )
            full = np.concatenate([input_tokens, fresh(n_output)])
            session.commit(full, clock + 0.5)
        return full

    print("== Conversation (input + output reuse) ==")
    context = fresh(300)
    for _ in range(3):
        full = serve(context, n_output=150)
        context = np.concatenate([full, fresh(60)])  # next user turn

    print("\n== Shared system prompt (purely-input reuse) ==")
    system_prompt = fresh(500)
    for i in range(3):
        serve(np.concatenate([system_prompt, fresh(80)]), n_output=40)

    stats = cache.stats
    print(
        f"\ntoken hit rate: {100 * stats.token_hit_rate:.1f}%  |  "
        f"cache used: {cache.used_bytes / GB:.2f} / {cache.capacity_bytes / GB:.0f} GB  |  "
        f"FLOPs saved: {stats.flops_saved:.3g}"
    )


if __name__ == "__main__":
    main()
