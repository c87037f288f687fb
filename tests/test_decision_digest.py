"""Every seeded replay in ``_decisions.SCENARIOS`` writes its committed
``tests/fixtures/decisions/<name>.jsonl`` line for line: the kernel matrix
(three trace shapes through the serving engine, the iteration engine and
1-3 replica clusters), a directory scenario and the four ``bench_e2e``
workloads at a small scale.  What a line holds is in ``_decisions.py``.  A
change meant to alter decisions regenerates the fixtures, and its PR says
"decisions change" in its title::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_decision_digest.py

Under each of three seeded mutations some scenario must diverge.
"""

from __future__ import annotations

import itertools
import json
import os

import pytest

import _decisions
from repro.cluster import router as router_module
from repro.cluster.directory import _ReplicaView
from repro.core.eviction import FlopAwareEviction

REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


@pytest.mark.parametrize("name", sorted(_decisions.SCENARIOS))
def test_replay_matches_its_digest(name):
    if REGEN:
        return _decisions.write(name)
    message = _decisions.divergence(name)
    if message is not None:
        pytest.fail(message, pytrace=False)


def test_every_fixture_has_a_scenario():
    fixtures = {path.stem: path for path in _decisions.FIXTURES.glob("*.jsonl")}
    if REGEN:
        for name in fixtures.keys() - _decisions.SCENARIOS.keys():
            fixtures[name].unlink()
    else:
        assert sorted(fixtures) == sorted(_decisions.SCENARIOS)


@pytest.mark.skipif(REGEN, reason="the fixtures are being rewritten")
def test_the_fixtures_steer():
    """Some fixture plans a split transfer and a whole one, and some replica
    promotes from and demotes to its second tier: the digest sees steering."""
    lines = [
        json.loads(line)
        for path in _decisions.FIXTURES.glob("*.jsonl")
        for line in path.read_text().splitlines()
    ]
    transfers = [line[3] for line in lines if line[0] == "d" and line[3]]
    assert any(t[3] is not None for t in transfers), "no fixture splits a transfer"
    assert any(t[3] is None for t in transfers), "no fixture plans a whole transfer"
    summaries = [line[1] for line in lines if line[0] == "s" and isinstance(line[1], dict)]
    extra = [e for summary in summaries for e in summary.get("extra", [])]
    assert any(e.get("promotions") for e in extra), "no fixture promotes"
    assert any(e.get("demotions") for e in extra), "no fixture demotes"


@pytest.mark.skipif(REGEN, reason="the fixtures are being rewritten")
def test_a_numpy_release_is_named_not_compared(monkeypatch, tmp_path):
    """A fixture's numpy line is not compared, and a divergence in its
    scenario names both releases."""
    lines = (_decisions.FIXTURES / "gateway_live.jsonl").read_text().splitlines()
    lines[0] = '["numpy","0.0"]'
    monkeypatch.setattr(_decisions, "FIXTURES", tmp_path)
    (tmp_path / "gateway_live.jsonl").write_text("\n".join(lines) + "\n")
    assert _decisions.divergence("gateway_live") is None
    (tmp_path / "gateway_live.jsonl").write_text("\n".join(lines[:-1]) + "\n")
    message = _decisions.divergence("gateway_live")
    assert f"diverges at line {len(lines)} " in message
    assert '["numpy","0.0"]' in message and _decisions.NUMPY[1] in message


def second_best_victim(monkeypatch):
    """Once per 1 000 selections, evict the best candidate but one."""
    select, calls = FlopAwareEviction.select_from_index, itertools.count(1)

    def mutated(self, index):
        victim = select(self, index)
        if next(calls) % 1000:
            return victim
        rest = [c for c in index.candidates() if c is not victim]
        return self.select_victim(rest) if rest else victim

    monkeypatch.setattr(FlopAwareEviction, "select_from_index", mutated)


def held_kept(monkeypatch):
    """A replica view keeps its resume entries when its tree is replaced."""

    def resync_only(self, tree):
        self.front._ingest_resync(self.replica, tree)

    monkeypatch.setattr(_ReplicaView, "on_tree_attached", resync_only)


def ties_to_highest(monkeypatch):
    """``_select`` breaks ties toward the highest index: its arg-max key
    ends in ``-index``, flipped here through the router module's ``max``."""

    def flipped(items, key):
        return max(items, key=lambda i: (*key(i)[:-1], -key(i)[-1]))

    monkeypatch.setattr(router_module, "max", flipped, raising=False)


@pytest.mark.skipif(REGEN, reason="the fixtures are being rewritten")
@pytest.mark.parametrize("mutate", [second_best_victim, held_kept, ties_to_highest])
def test_a_seeded_mutation_fails_the_digest(mutate, monkeypatch):
    mutate(monkeypatch)
    message = _decisions.first_divergence()
    assert message is not None, f"every scenario replays its digest under {mutate.__name__}"
    assert message.startswith("decision digest '") and " diverges at line " in message
