"""Tests for the experiment harness: config, runner, sweeps, CLI."""

import pytest

from repro.baselines.registry import POLICY_NAMES, make_cache
from repro.experiments.config import (
    DATASET_CONFIGS,
    SCALES,
    DatasetConfig,
    Scale,
    get_scale,
)
from repro.experiments.registry import FIGURES, run_figure
from repro.experiments.runner import (
    ResultCache,
    get_trace,
    run_policies,
    run_policy_on_trace,
)
from repro.experiments.sweeps import standard_sweep
from repro.experiments.__main__ import main as cli_main
from repro.models.presets import hybrid_7b


class TestScale:
    def test_presets_exist(self):
        assert set(SCALES) == {"smoke", "bench", "full"}

    def test_get_scale_passthrough(self):
        scale = Scale("custom", 0.5, 0.5)
        assert get_scale(scale) is scale
        assert get_scale("smoke").name == "smoke"
        with pytest.raises(KeyError):
            get_scale("nope")

    def test_sessions_floor(self):
        scale = Scale("x", session_factor=0.001, cache_factor=1.0)
        assert scale.sessions(100) == 4  # never degenerates to zero

    def test_cache_bytes(self):
        scale = Scale("x", 1.0, 0.5)
        assert scale.cache_bytes(10.0) == int(5e9)


class TestDatasetConfigs:
    def test_all_three_datasets(self):
        assert set(DATASET_CONFIGS) == {"lmsys", "sharegpt", "swebench"}

    def test_workload_params_overrides(self):
        config = DATASET_CONFIGS["lmsys"]
        params = config.workload_params(get_scale("smoke"), mean_think_s=9.0)
        assert params.mean_think_s == 9.0
        assert params.n_sessions == get_scale("smoke").sessions(config.n_sessions)

    def test_cache_grids_sorted_ascending(self):
        for config in DATASET_CONFIGS.values():
            assert list(config.cache_grid_gb) == sorted(config.cache_grid_gb)


class TestRunner:
    def test_trace_caching_returns_same_object(self):
        config = DATASET_CONFIGS["sharegpt"]
        params = config.workload_params(get_scale("smoke"))
        assert get_trace(config.workload, params) is get_trace(config.workload, params)

    def test_run_policy_produces_result(self):
        config = DATASET_CONFIGS["sharegpt"]
        trace = get_trace(config.workload, config.workload_params(get_scale("smoke")))
        result = run_policy_on_trace(hybrid_7b(), trace, "sglang+", int(1e9))
        assert result.n_requests == trace.n_requests
        assert 0.0 <= result.token_hit_rate < 1.0

    def test_run_policies_covers_all(self):
        config = DATASET_CONFIGS["sharegpt"]
        trace = get_trace(config.workload, config.workload_params(get_scale("smoke")))
        results = run_policies(hybrid_7b(), trace, ("vanilla", "marconi"), int(1e9))
        assert set(results) == {"vanilla", "marconi"}
        assert results["vanilla"].token_hit_rate == 0.0

    def test_alpha_recorded_in_stats(self):
        config = DATASET_CONFIGS["sharegpt"]
        trace = get_trace(config.workload, config.workload_params(get_scale("smoke")))
        result = run_policy_on_trace(hybrid_7b(), trace, "marconi", int(1e9))
        assert "alpha" in result.cache_stats

    @pytest.mark.parametrize("policy", sorted(set(POLICY_NAMES) - {"marconi-fixed"}))
    def test_alpha_is_refused_by_policies_that_take_none(self, policy):
        """An ignored ``alpha`` built identical caches and memoized
        identical runs under distinct keys; now nothing is built or cached."""
        memo = ResultCache()
        config = DATASET_CONFIGS["sharegpt"]
        trace = get_trace(config.workload, config.workload_params(get_scale("smoke")))
        with pytest.raises(ValueError, match="takes no alpha"):
            run_policy_on_trace(
                hybrid_7b(), trace, policy, int(1e9), alpha=2.0, result_cache=memo
            )
        assert len(memo) == 0
        assert make_cache("marconi-fixed", hybrid_7b(), int(1e9), alpha=2.0).alpha == 2.0


class TestSweep:
    def test_sweep_shape(self):
        points = standard_sweep("sharegpt", "smoke", policies=("vanilla", "sglang+"))
        config = DATASET_CONFIGS["sharegpt"]
        assert len(points) == len(config.cache_grid_gb) * len(config.think_grid_s)
        for point in points:
            assert set(point.results) == {"vanilla", "sglang+"}
            assert point.hit_rate("vanilla") == 0.0


class TestRegistryAndCLI:
    def test_figure_ids_complete(self):
        paper_figures = {
            "fig3a", "fig3b", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "fig11", "fig12a", "fig12b", "fig13a", "fig13b", "fig14", "table1",
        }
        assert paper_figures <= set(FIGURES)
        assert all(
            fig in paper_figures or fig.startswith("ext-") for fig in FIGURES
        )

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            run_figure("fig99")

    def test_cli_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table1" in out

    def test_cli_runs_analytic_figure(self, capsys):
        assert cli_main(["--figure", "table1", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "done in" in out

    def test_cli_requires_target(self, capsys):
        with pytest.raises(SystemExit):
            cli_main([])

    def test_cli_taxonomy(self, capsys):
        assert cli_main(["--taxonomy", "sharegpt", "--sessions", "6"]) == 0
        out = capsys.readouterr().out
        assert "purely_input" in out and "ceiling" in out

    def test_cli_gen_trace_roundtrip(self, capsys, tmp_path):
        from repro.workloads.trace import Trace

        path = tmp_path / "trace.jsonl"
        assert cli_main(
            ["--gen-trace", "docqa", "--out", str(path), "--sessions", "4"]
        ) == 0
        trace = Trace.from_jsonl(path)
        assert trace.name == "docqa"
        assert trace.n_sessions == 4

    def test_cli_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            cli_main(["--taxonomy", "nope"])

    def test_extension_figures_registered(self):
        from repro.experiments.registry import FIGURES

        assert {"ext-zoo", "ext-tiering", "ext-cluster", "ext-taxonomy",
                "ext-multitenant", "ext-tbt"} <= set(FIGURES)

    @pytest.mark.parametrize("figure_id", ["ext-tiering", "ext-tbt"])
    def test_extension_figures_run_at_smoke(self, figure_id):
        result = run_figure(figure_id, "smoke")
        assert result.figure_id == figure_id
        assert result.rows and result.extra
