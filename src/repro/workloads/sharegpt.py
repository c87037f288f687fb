"""ShareGPT-like workload (paper Fig. 6b).

Targets: succinct model outputs ("often take tens or hundreds of tokens"),
sequences predominantly under ~2K tokens with a modest tail to ~5K, and
somewhat chattier sessions (more, shorter rounds) than LMSys.
"""

from __future__ import annotations

from repro.workloads.distributions import GeometricCount, LogNormalLength
from repro.workloads.sessions import SessionShape

SHAREGPT_SHAPE = SessionShape(
    name="sharegpt",
    rounds=GeometricCount(mean=5.0, minimum=1, maximum=16),
    first_turn=LogNormalLength(median=70, sigma=0.9, minimum=4, maximum=1500),
    later_turn=LogNormalLength(median=50, sigma=0.9, minimum=4, maximum=1500),
    output=LogNormalLength(median=120, sigma=0.8, minimum=8, maximum=1200),
    shared_prefix_prob=0.5,
    n_templates=24,
    template_length=LogNormalLength(median=150, sigma=0.5, minimum=24, maximum=800),
    max_context_tokens=6000,
)
