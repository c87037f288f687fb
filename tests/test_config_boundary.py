"""Nonsensical configs fail typed, at construction.

NaN passes every ``< 0`` range test (a NaN ``propagation_delay`` is not
zero, so gossip went asynchronous and a cluster run never returned), inf
passes most of them (an infinite delay never applies a queued update), and
a fractional count used to be accepted and die later with a bare
``TypeError`` (``region_tokens=1.5`` at the first lookup's slice,
``max_running=1.5`` at the scheduler's ``range``).  Every case here only
constructs: none runs anything that could hang.
"""

import numpy as np
import pytest

from repro.cluster import ShardedPrefixDirectory
from repro.engine.kernel import KernelConfig
from repro.serving.gateway import GatewayConfig

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
