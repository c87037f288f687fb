"""Experiment harness: one entry point per paper figure/table.

Every evaluation artifact in the paper maps to a module in
:mod:`repro.experiments.figures` exposing ``run(scale) -> FigureResult``.
``python -m repro.experiments --figure fig7`` regenerates a figure's data as
an ASCII table; ``--all`` regenerates everything and is what populated
``EXPERIMENTS.md``.
"""

from repro.experiments.config import (
    DATASET_CONFIGS,
    DatasetConfig,
    Scale,
    SCALES,
    get_scale,
)
from repro.experiments.figures.base import FigureResult
from repro.experiments.parallel import (
    RunSpec,
    execute_spec,
    run_specs,
)
from repro.experiments.registry import FIGURES, run_figure
from repro.experiments.runner import (
    ResultCache,
    run_policies,
    run_policy_on_trace,
)
from repro.experiments.steering_sweep import (
    steered_round_ttft,
    steering_bandwidth_sweep,
    split_probe_trace,
)
from repro.experiments.sweeps import SweepPoint, standard_sweep, sweep_specs

__all__ = [
    "Scale",
    "SCALES",
    "get_scale",
    "DatasetConfig",
    "DATASET_CONFIGS",
    "FigureResult",
    "FIGURES",
    "run_figure",
    "run_policy_on_trace",
    "run_policies",
    "ResultCache",
    "RunSpec",
    "execute_spec",
    "run_specs",
    "SweepPoint",
    "standard_sweep",
    "sweep_specs",
    "split_probe_trace",
    "steered_round_ttft",
    "steering_bandwidth_sweep",
]
