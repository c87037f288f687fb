"""A served run's cache traffic is a log: the ``begin``, ``commit`` and
``abort`` events ``repro.core.sink`` reports for one cache, in order, with
their tokens and times (``_decisions.ServedLog``).  ``replay_log`` serves it
on a fresh cache, each begin opening a session and each commit or abort
closing its own, and gives every request the hit it was served: under LRU, a
fixed alpha and the online tuner, whose replay replicas stay out of the log.
"""

from functools import partial

import pytest

from _decisions import MODEL, SHAPES, ServedLog, matrix_trace, serve_logged
from repro.analysis import clairvoyant_replay
from repro.analysis.belady import victim_profile
from repro.baselines.registry import make_cache
from repro.core import sink
from repro.core.interfaces import replay_log
from repro.experiments.config import DATASET_CONFIGS, default_latency, default_model
from repro.experiments.config import get_scale
from repro.experiments.runner import get_trace
from repro.models.memory import node_state_bytes

POLICIES = {
    "lru": ("sglang+", {}),
    "alpha2": ("marconi-fixed", {"alpha": 2.0}),
    "tuned": ("marconi", {}),
}


def _check(model, make, trace, **serve):
    cache, log, run = serve_logged(model, make, trace, **serve)
    assert sorted(log.hits) == sorted(r.hit_tokens for r in run.records)
    begins = [entry[0] == "begin" for entry in log.entries]
    assert any(a and b for a, b in zip(begins, begins[1:])), "no begin follows a begin"
    assert replay_log(make(), log.entries) == log.hits
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
    aborted at once, and the log closes it by its serial, as its replay
    does."""
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
    assert replay_log(make_cache("sglang+", MODEL, int(1e12)), log.entries) == log.hits


def test_the_clairvoyant_replay_reads_a_served_log():
    """The schedule is the log's begins; a served log's serials name no
    round."""
    capacity = 6 * node_state_bytes(MODEL, 2000, True)
    make = partial(make_cache, "sglang+", MODEL, capacity)
    _, log = _check(MODEL, make, matrix_trace("lmsys"), n_executors=4)
    bound = clairvoyant_replay(MODEL, log.entries, capacity)
    assert bound.n_requests == len(log.hits) and bound.evictions > 0
    victims = victim_profile(MODEL, log.entries, capacity, mean_think_s=1.0)
    assert len(victims) == bound.evictions
    assert {victim.session_round for victim in victims} == {-1}


def test_an_unknown_event_is_named_and_leaves_nothing_open():
    cache = make_cache("sglang+", MODEL, int(1e12))
    log = [("begin", 0, [1, 2, 3], 0.0), ("evict", 0)]
    with pytest.raises(ValueError, match="'evict' under key 0"):
        replay_log(cache, log)
    assert cache.stats.lookups == 1 and cache.open_sessions == 0


def test_a_replay_that_raises_aborts_every_session_it_holds():
    cache = make_cache("sglang+", MODEL, int(1e12))
    log = [("begin", 0, [1, 2, 3], 0.0), ("begin", 1, [1, 2, 4], 0.5), ("commit", 2, [1], 1.0)]
    with pytest.raises(KeyError):
        replay_log(cache, log)
    assert cache.stats.lookups == 2 and cache.open_sessions == 0
