"""LMSys-Chat-1M-like workload (paper Fig. 6a).

Distributional targets, read off the paper's Fig. 6a and section 5.1's
description: multi-turn chatbot sessions with relatively *long* model
outputs ("often reaching thousands of tokens"), full-request inputs
concentrated below ~10K tokens with a tail to ~30K (accumulated
conversation context), and a moderate fraction of sessions opening with a
shared system prompt.
"""

from __future__ import annotations

from repro.workloads.distributions import GeometricCount, LogNormalLength
from repro.workloads.sessions import SessionShape

LMSYS_SHAPE = SessionShape(
    name="lmsys",
    rounds=GeometricCount(mean=4.0, minimum=1, maximum=16),
    first_turn=LogNormalLength(median=90, sigma=1.0, minimum=4, maximum=2000),
    later_turn=LogNormalLength(median=60, sigma=1.0, minimum=4, maximum=2000),
    output=LogNormalLength(median=400, sigma=1.1, minimum=16, maximum=6000),
    shared_prefix_prob=0.6,
    n_templates=20,
    template_length=LogNormalLength(median=250, sigma=0.5, minimum=32, maximum=1500),
    max_context_tokens=32000,
)
