"""The docs cite only what exists: every test id they name collects, and
every repo path they name is in the tree.

Sources are ``docs/*.md``, ``README.md`` and the verify skill.  A test id is
``<file>.py::<node>`` under ``tests/``, ``benchmarks/`` or ``bench_e2e/``
(a bare ``test_x.py::...`` is looked up in those three); pytest itself
collects them.  A path starts at a top-level directory (``src/``,
``tests/``, ...), at a ``src/repro`` package (``core/cache.py``), or is a
top-level ``*.md`` file.  Globs (``benchmarks/test_micro_*.py``) and
templates (``matrix_<shape>.trace.jsonl``) are not paths.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    *sorted(ROOT.glob("docs/*.md")),
    ROOT / "README.md",
    *ROOT.glob(".*/skills/verify/SKILL.md"),  # the verify skill
]
TEST_DIRS = ("tests", "benchmarks", "bench_e2e")
PACKAGES = sorted(p.parent.name for p in (ROOT / "src" / "repro").glob("*/__init__.py"))
# Cited before it exists: the experiment ledger (ROADMAP item 1 step 4).
NOT_YET_WRITTEN = {"EXPERIMENTS.md"}
# Git-ignored directories that runs write: absent from a fresh checkout.
OUTPUTS = ("benchmarks/out", "bench_e2e/out")

TEST_ID = re.compile(r"((?:[\w.-]+/)*test_\w+\.py)::([\w:\[\].-]*[\w\]])")
TOP_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|benchmarks|bench_e2e|examples|docs|\.github)"
    r"(?:/[\w.-]+)*/[\w.-]*\w)(?![\w*{<])"
)
PACKAGE_PATH = re.compile(
    rf"(?<![\w./-])((?:{'|'.join(PACKAGES)})/[\w/]*\w\.py)(?![\w*])"
)
TOP_DOC = re.compile(r"(?<![\w./-])([A-Z][A-Z_]*\.md)\b")


def _texts() -> dict[str, str]:
    return {str(path.relative_to(ROOT)): path.read_text() for path in SOURCES}


def _test_ids() -> set[str]:
    ids = set()
    for text in _texts().values():
        for file, node in TEST_ID.findall(text):
            if "/" not in file:  # a bare file name: find its directory
                homes = [d for d in TEST_DIRS if (ROOT / d / file).is_file()]
                file = f"{homes[0]}/{file}" if len(homes) == 1 else file
            ids.add(f"{file}::{node.rstrip(':')}")
    return ids


def test_every_cited_test_id_collects():
    ids = sorted(_test_ids())
    assert ids, "no test id found: the pattern no longer matches the docs"
    outside = [i for i in ids if not i.startswith(tuple(f"{d}/" for d in TEST_DIRS))]
    assert not outside, f"test ids outside {TEST_DIRS}: {outside}"
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    collect = ["--collect-only", "-q", "-p", "no:cacheprovider", "-m", ""]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", *collect, *ids],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, (
        f"pytest cannot collect a cited id:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
    )


def test_every_cited_path_exists():
    missing = []
    for source, text in _texts().items():
        for path in TOP_PATH.findall(text):
            if not path.startswith(OUTPUTS) and not (ROOT / path).exists():
                missing.append((source, path))
        for path in PACKAGE_PATH.findall(text):
            if not (ROOT / "src" / "repro" / path).is_file():
                missing.append((source, path))
        for path in TOP_DOC.findall(text):
            if path not in NOT_YET_WRITTEN and not (ROOT / path).is_file():
                missing.append((source, path))
    assert not missing, f"cited paths the tree does not hold: {missing}"
