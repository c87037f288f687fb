"""SWE-Agent-on-SWE-Bench-like agentic workload (paper Fig. 6c).

Targets: every trajectory opens with a long shared preamble (agent system
prompt + repository context — a small pool of "repositories" shared across
issues), each agent step appends a sizeable environment observation and a
short action, and trajectories run for many steps, producing the *widest*
input length distribution of the three workloads (hundreds of tokens to
tens of thousands) with uniformly short outputs.  That width is what makes
FLOP-aware eviction matter most on this workload (Figs. 8, 10).
"""

from __future__ import annotations

from repro.workloads.distributions import GeometricCount, LogNormalLength
from repro.workloads.sessions import SessionShape

SWEBENCH_SHAPE = SessionShape(
    name="swebench",
    rounds=GeometricCount(mean=10.0, minimum=1, maximum=48),
    first_turn=LogNormalLength(median=900, sigma=0.9, minimum=100, maximum=6000),
    later_turn=LogNormalLength(median=550, sigma=1.2, minimum=30, maximum=10000),
    output=LogNormalLength(median=150, sigma=0.6, minimum=16, maximum=1000),
    shared_prefix_prob=1.0,
    n_templates=8,
    template_length=LogNormalLength(median=2200, sigma=0.35, minimum=600, maximum=6000),
    template_zipf=0.9,
    max_context_tokens=38000,
)
