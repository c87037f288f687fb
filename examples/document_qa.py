"""Long-document QA: purely-input reuse at its most extreme.

Every request repeats a ~16K-token document and appends a short question
(the LooGLE-style scenario from the paper's taxonomy).  The example first
*measures* the reuse opportunity with the taxonomy analyzer, then compares
how much of it each policy banks — including the clairvoyant replay, the
offline upper bound any eviction order could reach.

Run:  python examples/document_qa.py
"""

from _common import FAST
from repro import MarconiCache, clairvoyant_replay, classify_trace, hybrid_7b
from repro.baselines import make_cache
from repro.core import replay_log
from repro.metrics import ascii_table
from repro.workloads import generate_trace

CACHE_GB = 20


def replay(cache, log):
    replay_log(cache, log)
    return cache.stats.token_hit_rate


def main() -> None:
    model = hybrid_7b()
    trace = generate_trace(
        "docqa",
        n_sessions=12 if FAST else 60, seed=11, session_rate=0.5
    )
    capacity = int(CACHE_GB * 1e9)

    report = classify_trace(trace)
    print(f"workload: {trace.n_requests} questions over "
          f"{trace.metadata['n_sessions']} sessions, 6 shared documents")
    print(report.summary_table())
    print(f"reuse opportunity (any cache's ceiling): "
          f"{100 * report.reusable_token_share:.1f}%\n")

    log = trace.nominal_log()
    rows = []
    for name in ("vllm+", "sglang+", "marconi"):
        cache = make_cache(name, model, capacity)
        rows.append([name, f"{100 * replay(cache, log):.1f}%"])
    oracle = clairvoyant_replay(model, log, capacity)
    rows.append(["clairvoyant (offline bound)", f"{100 * oracle.token_hit_rate:.1f}%"])

    print(ascii_table(["policy", "token hit rate"], rows))
    print(
        "\nWith 16K-token documents, one fine-grained (vLLM+) request floods\n"
        f"the {CACHE_GB} GB cache with block checkpoints; Marconi stores two\n"
        "states per document and banks nearly the whole opportunity."
    )


if __name__ == "__main__":
    main()
