"""Shared writer for the ``BENCH_*.json`` perf snapshots of the micro benches.

The micro benchmarks (kernel, router, session, steering, sweep, gateway)
each persist a JSON snapshot of what they measured.  Snapshots land under
the git-ignored ``benchmarks/out/`` (:data:`OUT_DIR`), so running tier-1
leaves the work tree clean; CI uploads them as artifacts.  The tracked
performance trajectory is ``BENCHMARK.json`` + ``bench_e2e/``, not these
files.  One writer keeps them machine-comparable:

* ``schema_version`` — bumped when the envelope layout changes, so a
  trajectory scraper can refuse to diff incompatible snapshots.
* ``host`` — interpreter + hardware fingerprint.  Events-per-second
  numbers are only comparable between snapshots taken on similar hosts;
  the fingerprint makes "this regression is just a slower runner"
  checkable after the fact.
* Consistent serialization: sorted keys, two-space indent, trailing
  newline, NaN-free (non-finite floats are serialized as strings).

The benchmark-specific measurements live under their own keys at the
top level, exactly as before — the envelope only adds metadata, so
pre-existing consumers keyed on e.g. ``kernel_events_per_second`` keep
working.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Any

#: Version of the snapshot envelope (top-level metadata layout).
SCHEMA_VERSION = 2

#: Where snapshots are written (git-ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"


def host_fingerprint() -> dict[str, Any]:
    """Interpreter + hardware identity of the measuring host."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def _sanitize(value: Any) -> Any:
    """Make ``value`` strictly-JSON safe (no NaN/Infinity literals)."""
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return repr(value)
        return value
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def write_bench(path: Path, benchmark: str, payload: dict[str, Any]) -> dict[str, Any]:
    """Write one snapshot to ``path`` and return the full document.

    ``payload`` carries the benchmark-specific measurements; the writer
    wraps it in the common envelope (schema version, benchmark name,
    host fingerprint).  Payload keys win over envelope keys so a bench
    can override e.g. ``benchmark`` with a more specific slug.
    """
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": benchmark,
        "host": host_fingerprint(),
    }
    doc.update(payload)
    doc = _sanitize(doc)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    return doc


def read_bench(path: Path) -> dict[str, Any]:
    """Load a snapshot previously written by :func:`write_bench`."""
    return json.loads(path.read_text())
