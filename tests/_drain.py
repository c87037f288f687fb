"""The drain check the cluster suites share: once a run is over, every
cache has closed its sessions, pins no node and accounts its bytes exactly,
and (given the trace) every round of the trace was served."""

from __future__ import annotations

from typing import Any, Optional, Sequence


def expected_rounds(trace: Any) -> set[tuple[int, int]]:
    return {(s.session_id, r) for s in trace.sessions for r in range(s.n_rounds)}


def served_rounds(result: Any) -> set[tuple[int, int]]:
    return {
        (rec.session_id, rec.round_index)
        for replica in result.replica_results
        for rec in replica.records
    }


def assert_drained(caches: Sequence[Any], result: Any = None, trace: Optional[Any] = None) -> None:
    for cache in caches:
        assert cache.open_sessions == 0
        assert all(node.pin_count == 0 for node in cache.tree.iter_nodes())
        assert cache.used_bytes == cache.recompute_used_bytes()
    if trace is not None:
        assert served_rounds(result) == expected_rounds(trace)
