"""Ablation bench: eviction policy families on one contended SWEBench config.

Beyond the paper's LRU comparison, this adds GDSF (the classic size-aware
scheme section 4.2 argues is mis-signaled for hybrid states) and the
bootstrap-tuned alpha next to a fixed one.
"""

from conftest import run_once

from repro.core.cache import MarconiCache
from repro.engine.server import simulate_trace
from repro.experiments.config import DATASET_CONFIGS, default_model, get_scale
from repro.experiments.runner import get_trace
from repro.metrics.reporting import ascii_table


def _run_all(scale_name):
    scale = get_scale(scale_name)
    config = DATASET_CONFIGS["swebench"]
    trace = get_trace(config.workload, config.workload_params(scale))
    capacity = scale.cache_bytes(config.cache_grid_gb[1])
    model = default_model()
    variants = {
        "lru": dict(eviction="lru"),
        "gdsf": dict(eviction="gdsf"),
        "flop_aware(a=1)": dict(eviction="flop_aware", alpha=1.0),
        "flop_aware(auto)": dict(eviction="flop_aware", alpha=None),
    }
    out = {}
    for name, kwargs in variants.items():
        cache = MarconiCache(model, capacity, **kwargs)
        out[name] = simulate_trace(model, cache, trace, policy_name=name).token_hit_rate
    return out


def test_ablation_eviction_policies(benchmark, scale):
    hits = run_once(benchmark, _run_all, scale)
    print("\n" + ascii_table(
        ["eviction", "token_hit_rate"],
        [[name, f"{rate:.3f}"] for name, rate in sorted(hits.items())],
    ))
    # The flop-aware family must beat plain LRU on the wide-distribution
    # workload.
    # The auto-tuned cache should land within reach of the fixed-alpha one.
    assert hits["flop_aware(auto)"] >= hits["lru"] * 0.9
    if scale != "smoke":
        assert hits["flop_aware(a=1)"] > hits["lru"]
