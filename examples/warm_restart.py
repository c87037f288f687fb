"""Warm restarts: snapshot the cache bookkeeping across a server restart.

Serves the first half of a chat workload, snapshots the cache to disk,
"restarts" into a fresh process state, restores, and serves the second
half.  The windowed hit-rate timeline shows the cold restart's warmup dip
— and the warm restart avoiding it entirely.

Run:  python examples/warm_restart.py
"""

from _common import FAST
from repro import MarconiCache, hybrid_7b
from repro.analysis import windowed_hit_rate
from repro.core import replay_log
from repro.core.persistence import load_cache, save_cache
from repro.engine.results import RequestRecord
from repro.metrics import ascii_table
from repro.models.memory import node_state_bytes
from repro.workloads import generate_trace

SNAPSHOT = "/tmp/marconi_cache_snapshot.npz"


def replay(cache, log, records):
    """Serve a nominal ``log`` on ``cache``: a record per request, holding
    the hit and input length the windows read."""
    hits = replay_log(cache, log)
    for (_, (sid, k), inp, now), (_, _, full, _), hit in zip(log[::2], log[1::2], hits):
        records.append(
            RequestRecord(
                session_id=sid, round_index=k, arrival_time=now, service_start=now,
                prefill_seconds=0.0, ttft=0.0, input_len=len(inp),
                hit_tokens=hit, output_len=len(full) - len(inp),
                reused_bytes=0, flops_saved=0.0,
            )
        )


def main() -> None:
    model = hybrid_7b()
    capacity = 40 * node_state_bytes(model, 3000, True)
    trace = generate_trace("lmsys", n_sessions=12 if FAST else 40, seed=13)
    log = trace.nominal_log()
    half = len(log) // 4  # requests; each is a begin and its commit

    # First shift, then snapshot.
    cache = MarconiCache(model, capacity, alpha=1.0)
    first_half: list[RequestRecord] = []
    replay(cache, log[: 2 * half], first_half)
    save_cache(cache, SNAPSHOT)
    print(
        f"snapshot after {half} requests: {cache.tree.n_nodes} nodes, "
        f"{cache.used_bytes / 1e9:.2f} GB of state bookkeeping\n"
    )

    # Second shift, twice: cold restart vs warm restore.
    variants = {
        "cold restart": MarconiCache(model, capacity, alpha=1.0),
        "warm restore": load_cache(model, capacity, SNAPSHOT, alpha=1.0),
    }
    rows = []
    for name, restarted in variants.items():
        records: list[RequestRecord] = []
        replay(restarted, log[2 * half :], records)
        windows = windowed_hit_rate(records, window=25)
        rows.append(
            [
                name,
                f"{100 * windows[0].token_hit_rate:.1f}%",
                f"{100 * windows[-1].token_hit_rate:.1f}%",
                f"{100 * sum(r.hit_tokens for r in records) / sum(r.input_len for r in records):.1f}%",
            ]
        )

    print(ascii_table(
        ["second shift", "first window", "last window", "overall"], rows,
    ))
    print(
        "\nThe cold cache spends its first windows missing on every returning\n"
        "conversation; the restored tree serves them immediately."
    )


if __name__ == "__main__":
    main()
