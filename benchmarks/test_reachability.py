"""The function-entry census (``benchmarks/reachability.py``) on one fast entry point."""

import sys

from reachability import definitions, unreached


def test_list_enters_main_and_loads_no_trace():
    names = {name for name, _ in definitions().values()}
    missed = {name for name, _ in unreached([(sys.executable, "-m", "repro.experiments", "--list")])}
    assert {"experiments/__main__.py::main", "workloads/trace.py::Trace.from_jsonl"} <= names
    assert "experiments/__main__.py::main" not in missed
    assert "workloads/trace.py::Trace.from_jsonl" in missed
