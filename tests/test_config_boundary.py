"""Nonsensical configs fail typed, at construction.

NaN passes every ``< 0`` range test (a NaN ``propagation_delay`` is not
zero, so gossip went asynchronous and a cluster run never returned), inf
passes most of them (an infinite delay never applies a queued update), and
a fractional count used to be accepted and die later with a bare
``TypeError`` (``region_tokens=1.5`` at the first lookup's slice,
``max_running=1.5`` at the scheduler's ``range``).  A trace session's times
are checked the same way: a NaN arrival or think time used to replay as a
NaN TTFT, and a negative arrival to fail late, inside the kernel.  Every
case here only constructs: none runs anything that could hang.
"""

import numpy as np
import pytest

from repro.cluster import ShardedPrefixDirectory
from repro.engine.kernel import KernelConfig
from repro.serving.gateway import GatewayConfig
from repro.workloads.trace import TraceRound, TraceSession

NAN, INF = float("nan"), float("inf")

BAD = [
    (ShardedPrefixDirectory, "propagation_delay", NAN),
    (ShardedPrefixDirectory, "propagation_delay", INF),
    (ShardedPrefixDirectory, "gossip_interval", NAN),
    (ShardedPrefixDirectory, "gossip_interval", INF),
    (ShardedPrefixDirectory, "n_shards", 2.5),
    (ShardedPrefixDirectory, "region_tokens", 1.5),
    (ShardedPrefixDirectory, "gossip_budget", 1.5),
    (KernelConfig, "max_running", 1.5),
    (GatewayConfig, "n_workers", 2.5),
    (GatewayConfig, "max_queue_depth", 8.5),
    (GatewayConfig, "response_cache_entries", 10.5),
    (GatewayConfig, "response_cache_bytes", 1e6 + 0.5),
    (GatewayConfig, "decode_yield_every", 1.5),
]


@pytest.mark.parametrize(
    "config, name, value", BAD, ids=[f"{c.__name__}-{n}-{v}" for c, n, v in BAD]
)
def test_nonsensical_config_is_a_value_error_naming_the_field(config, name, value):
    with pytest.raises(ValueError, match=name):
        config(**{name: value})


def test_sensible_configs_still_construct():
    ShardedPrefixDirectory()
    ShardedPrefixDirectory(n_shards=np.int64(3), region_tokens=np.int32(4))
    ShardedPrefixDirectory(propagation_delay=1.0, gossip_budget=2, gossip_interval=0.5)
    KernelConfig(max_running=np.int64(4))
    GatewayConfig(n_workers=2, max_queue_depth=1 << 30)


SESSION_BAD = [
    ("arrival_time", NAN, 1.0),
    ("arrival_time", INF, 1.0),
    ("arrival_time", -INF, 1.0),
    ("arrival_time", -1.0, 1.0),
    ("think_times", 0.0, NAN),
    ("think_times", 0.0, INF),
]


@pytest.mark.parametrize(
    "name, arrival, think", SESSION_BAD, ids=[f"{n}-{a}-{t}" for n, a, t in SESSION_BAD]
)
def test_nonsensical_session_time_is_a_value_error_naming_the_field(name, arrival, think):
    rounds = [TraceRound([1, 2], [3]), TraceRound([4], [5])]
    with pytest.raises(ValueError, match=name):
        TraceSession(session_id=0, arrival_time=arrival, rounds=rounds, think_times=[0.0, think])
