"""Every seeded replay in ``_decisions.SCENARIOS`` writes its committed
``tests/fixtures/decisions/<name>.jsonl`` line for line: every nominal
replay (the static-alpha oracle, the clairvoyant bound and its victims, a
capacity curve, a tuned cache's grid search), the kernel matrix (three
trace shapes through the serving engine, the iteration engine and 1-3
replica clusters), directory, rack, second-tier and sharded-directory
scenarios and the four ``bench_e2e`` workloads at a small scale.  What a
line holds is in ``_decisions.py``.  A change meant to alter decisions
regenerates the fixtures, and its PR says "decisions change" in its title::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_decision_digest.py

Under each seeded mutation some scenario must diverge: three patched
behaviours, and twelve one-line edits of the source (:data:`EDITS`).
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
import types

import pytest

import _decisions
from repro.cluster import directory as directory_module
from repro.cluster import router as router_module
from repro.cluster import sharded_directory as sharded_module
from repro.cluster.directory import _ReplicaView
from repro.core import alpha_tuner as tuner_module
from repro.core import cache as cache_module
from repro.core import interfaces as interfaces_module
from repro.core.eviction import FlopAwareEviction
from repro.engine import steering as steering_module
from repro.tiering import secondary as secondary_module

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


def edit_source(monkeypatch, module, qualname, old, new):
    """Patch in ``module``'s ``qualname`` (``function`` or ``Class.method``,
    a property's getter too) as its source reads with ``old`` replaced by
    ``new``, there and in every module that imported it by name.  The edited
    code runs against the real module's globals and classes."""
    source = inspect.getsource(module)
    assert source.count(old) == 1, f"{old!r} is not in {module.__name__} exactly once"
    namespace = {"__name__": module.__name__}
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    *cls, name = qualname.split(".")
    owner = getattr(module, cls[0]) if cls else module
    edited, original = (vars(namespace[cls[0]]) if cls else namespace)[name], vars(owner)[name]
    code = edited.fget if isinstance(edited, property) else edited
    cells = [types.CellType(owner) if var == "__class__" else cell  # super() sees the real class
             for var, cell in zip(code.__code__.co_freevars, code.__closure__ or ())]
    fn = types.FunctionType(code.__code__, vars(module), name, code.__defaults__, tuple(cells))
    for holder in [owner] if cls else list(sys.modules.values()):
        if getattr(holder, name, None) is original:
            monkeypatch.setattr(holder, name, property(fn) if isinstance(edited, property) else fn)


@pytest.mark.parametrize("old", ["no such text", "self"])
def test_an_edit_names_its_text_exactly_once(old, monkeypatch):
    with pytest.raises(AssertionError, match="exactly once"):
        edit_source(monkeypatch, router_module, "PrefixAffinityRouter._hits", old, "")


#: The twelve one-line edits: ``(module, qualname, old text, new text)``.
EDITS = {
    "M1-rotation": (steering_module, "pick_least_loaded",
                    "rotation % loads.count(floor)", "rotation % min(loads.count(floor), 2)"),
    "M2-owner-only": (sharded_module, "ShardedPrefixDirectory._ingest",
                      "owner_only = self._past_region(update.kind, update.depth)"
                      "  # no one else stores it", "owner_only = True"),
    "M3-clear-skips-one": (directory_module, "PrefixIndex.clear_replica",
                           "for node in doomed:", "for node in doomed[1:]:"),
    "M4-rack-tie": (router_module, "HierarchicalRouter._scope",
                    "(-min(loads[rack * size : (rack + 1) * size]), -rack)",
                    "(-min(loads[rack * size : (rack + 1) * size]), rack)"),
    "M5-kv-uncapped": (router_module, "PrefixAffinityRouter._hits",
                       "hits[r] = matched if matched < cap else cap", "hits[r] = matched"),
    "M6-last-token": (secondary_module, "SecondaryStore._held",
                      "data.startswith(entry.key)", "data.startswith(entry.key[:-4])"),
    "M7-depths-descending": (directory_module, "DirectoryLookup._derive_ckpt",
                             "depths.setdefault(r, []).append(end)",
                             "depths.setdefault(r, []).insert(0, end)"),
    "M8-kv-leaf-first": (directory_module, "DirectoryLookup.kv_matched",
                         "for node in reversed(path):", "for node in path:"),
    "M9-commit-late": (interfaces_module, "replay_log", "sessions[key].commit(*args)",
                       "sessions[key].commit(args[0], args[1] + 1.0)"),
    "M10-stateless-scored": (cache_module, "MarconiCache._candidate_efficiency",
                             "if freeable <= 0 or (self._recurrent_bytes and not node.has_ssm_state):",
                             "if freeable <= 0:"),
    "M11-begin-unheard": (interfaces_module, "PrefixCache.begin",
                          'sink.SINK("begin", self, session, tokens, now)', "pass"),
    "M12-window-begins-whole": (tuner_module, "AlphaTuner.after_request",
                                '("begin", key, full_tokens[:input_len], now)',
                                '("begin", key, full_tokens, now)'),
}
MUTATIONS = [second_best_victim, held_kept, ties_to_highest] + [
    pytest.param(lambda mp, edit=edit: edit_source(mp, *edit), id=name)
    for name, edit in EDITS.items()
]


@pytest.mark.skipif(REGEN, reason="the fixtures are being rewritten")
@pytest.mark.parametrize("mutate", MUTATIONS)
def test_a_seeded_mutation_fails_the_digest(mutate, monkeypatch):
    mutate(monkeypatch)
    message = _decisions.first_divergence()
    assert message is not None, "every scenario replays its digest under this mutation"
    assert message.startswith("decision digest '") and " diverges at line " in message
