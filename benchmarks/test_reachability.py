"""The function-entry census (``benchmarks/reachability.py``) on one fast entry point,
and the full census as a slow-lane ratchet."""

import sys

import pytest

from reachability import ENTRY_POINTS, definitions, unreached

# Unreached ``src/repro`` def lines of the full census at the last cut.  A change
# that leaves more unreached either cuts them or shows why they stay and raises this.
UNREACHED_LINES = 1307


def test_list_enters_main_and_loads_no_trace():
    names = {name for name, _ in definitions().values()}
    missed = {name for name, _ in unreached([(sys.executable, "-m", "repro.experiments", "--list")])}
    assert {"experiments/__main__.py::main", "workloads/trace.py::Trace.from_jsonl"} <= names
    assert "experiments/__main__.py::main" not in missed
    assert "workloads/trace.py::Trace.from_jsonl" in missed


@pytest.mark.slow
def test_unreached_lines_do_not_grow():
    """Every entry point, ~14 min on 2 cores."""
    missed = sorted(unreached(ENTRY_POINTS))
    lines = sum(n for _, n in missed)
    assert lines <= UNREACHED_LINES, (
        f"{lines} unreached def lines, bound {UNREACHED_LINES}:\n"
        + "\n".join(name for name, _ in missed)
    )
