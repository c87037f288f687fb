"""Ablation bench: sensitivity of the hit rate to the alpha weight.

DESIGN.md calls out the recency/efficiency balance as the key design choice
of FLOP-aware eviction; this sweeps fixed alphas and compares against the
online tuner and the offline static-alpha oracle (artifact policy V3).
"""

from conftest import run_once

from repro.baselines.oracle import tune_static_alpha
from repro.experiments.config import DATASET_CONFIGS, default_model, get_scale
from repro.experiments.runner import get_trace, run_policy_on_trace
from repro.metrics.reporting import ascii_table

ALPHAS = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0)


def _run(scale_name):
    scale = get_scale(scale_name)
    config = DATASET_CONFIGS["swebench"]
    trace = get_trace(config.workload, config.workload_params(scale))
    capacity = scale.cache_bytes(config.cache_grid_gb[1])
    model = default_model()
    fixed = {
        alpha: run_policy_on_trace(
            model, trace, "marconi-fixed", capacity, alpha=alpha
        ).token_hit_rate
        for alpha in ALPHAS
    }
    auto = run_policy_on_trace(model, trace, "marconi", capacity).token_hit_rate
    oracle = tune_static_alpha(model, capacity, trace.nominal_log(), alpha_grid=ALPHAS)
    return fixed, auto, oracle


def test_ablation_alpha_sensitivity(benchmark, scale):
    fixed, auto, oracle = run_once(benchmark, _run, scale)
    rows = [[f"{a:g}", f"{rate:.3f}"] for a, rate in fixed.items()]
    rows.append(["auto (tuner)", f"{auto:.3f}"])
    rows.append([f"oracle (a={oracle.best_alpha:g})", f"{oracle.best_hit_rate:.3f}"])
    print("\n" + ascii_table(["alpha", "token_hit_rate"], rows))
    best_fixed = max(fixed.values())
    assert auto >= fixed[0.0] * 0.85
    if scale != "smoke":
        # Some positive alpha beats LRU at bench-scale contention.
        assert best_fixed > fixed[0.0]
    # The oracle's grid covers the fixed grid, so it can't do worse than
    # the best static choice evaluated on its own (nominal-order) replay.
    assert oracle.best_hit_rate >= max(oracle.hit_rates.values()) - 1e-12
