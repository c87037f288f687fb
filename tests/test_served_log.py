"""A served run's cache traffic is a log (ROADMAP item 2 step 0): the
``begin``, ``commit`` and ``abort`` events ``repro.core.sink`` reports for
one cache, in order, with their tokens and times.  Replayed in that order on
a fresh cache, each begin opening a session and each commit or abort closing
its own, the log gives every request the hit it was served: under LRU, a
fixed alpha and the online tuner, whose replay replicas stay out of the log.
"""

from functools import partial

import pytest

from _decisions import MODEL, SHAPES, matrix_trace
from repro.baselines.registry import make_cache
from repro.core import sink
from repro.engine.server import simulate_trace
from repro.experiments.config import DATASET_CONFIGS, default_latency, default_model
from repro.experiments.config import get_scale
from repro.experiments.runner import get_trace
from repro.models.memory import node_state_bytes

POLICIES = {
    "lru": ("sglang+", {}),
    "alpha2": ("marconi-fixed", {"alpha": 2.0}),
    "tuned": ("marconi", {}),
}


class ServedLog:
    """A sink consumer: ``cache``'s traffic as ``("begin", serial, tokens,
    now)``, ``("commit", serial, full, now)`` and ``("abort", serial)``, a
    request keyed by the serial of its begin, and each begin's served hit.
    It holds no session: a held one would never be collected, and the GC
    safety net would then abort something else.  ``others`` counts the
    begins of every other cache (a tuner's replay replicas)."""

    def __init__(self, cache):
        self.cache, self.entries, self.hits, self.others = cache, [], [], 0
        self._serials = {}  # id of an open session -> its serial

    def __call__(self, event, source, *details):
        if event not in ("begin", "commit", "abort"):
            return
        if source is not self.cache:
            self.others += event == "begin"
            return
        session, *rest = details
        if event == "begin":
            serial = self._serials[id(session)] = len(self.hits)
            self.hits.append(session.hit_tokens)
        else:
            serial = self._serials.pop(id(session))
        self.entries.append((event, serial, *rest))


def replay_served(cache, entries):
    """Each request's hit on ``cache`` when ``entries`` are replayed in order."""
    sessions, hits = {}, []
    for event, serial, *args in entries:
        if event == "begin":
            sessions[serial] = session = cache.begin(*args)
            hits.append(session.hit_tokens)
        elif event == "commit":
            sessions.pop(serial).commit(*args)
        else:
            sessions.pop(serial).abort()
    return hits


def _served_log(model, make, trace, **serve):
    cache = make()
    log = sink.SINK = ServedLog(cache)
    try:
        run = simulate_trace(model, cache, trace, **serve)
    finally:
        sink.SINK = None
    assert sorted(log.hits) == sorted(r.hit_tokens for r in run.records)
    return cache, log


def _check(model, make, trace, **serve):
    cache, log = _served_log(model, make, trace, **serve)
    begins = [entry[0] == "begin" for entry in log.entries]
    assert any(a and b for a, b in zip(begins, begins[1:])), "no begin follows a begin"
    assert replay_served(make(), log.entries) == log.hits
    return cache, log


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("n_executors", [1, 4])
@pytest.mark.parametrize("shape", SHAPES)
def test_a_matrix_log_replays_its_hits(shape, n_executors, policy):
    name, kwargs = POLICIES[policy]
    capacity = 6 * node_state_bytes(MODEL, 2000, True)
    make = partial(make_cache, name, MODEL, capacity, **kwargs)
    _check(MODEL, make, matrix_trace(shape), n_executors=n_executors)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("dataset, cache_gb", [("swebench", 20.0), ("sharegpt", 2.5)])
def test_a_served_smoke_log_replays_its_hits(dataset, cache_gb, policy):
    name, kwargs = POLICIES[policy]
    scale, config, model = get_scale("smoke"), DATASET_CONFIGS[dataset], default_model()
    trace = get_trace(config.workload, config.workload_params(scale))
    make = partial(make_cache, name, model, scale.cache_bytes(cache_gb), **kwargs)
    cache, log = _check(model, make, trace, latency=default_latency())
    if policy == "tuned":  # its replay replicas' begins were heard, and left out
        assert cache.tuner.search_results and log.others > 0


def test_the_log_holds_no_session():
    """The log keeps no session alive: one the run drops is collected and
    aborted at once, and the log closes it by its serial."""
    cache = make_cache("sglang+", MODEL, int(1e12))
    log = sink.SINK = ServedLog(cache)
    try:
        cache.begin([1, 2, 3], 0.0)  # dropped at once: the GC safety net aborts it
        with cache.begin([1, 2, 3, 4], 1.0) as session:
            session.commit([1, 2, 3, 4, 5], 2.0)
    finally:
        sink.SINK = None
    assert [entry[:2] for entry in log.entries] == [
        ("begin", 0), ("abort", 0), ("begin", 1), ("commit", 1)
    ]
    assert cache.open_sessions == 0
