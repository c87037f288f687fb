"""Few-shot prompting workload (MMLU-like; paper section 4.1 taxonomy).

The paper lists "few-shot examples (Hendrycks et al., 2020)" among the
*purely input* reuse scenarios: a batch-evaluation or API workload where
every request repeats the same instruction-plus-demonstrations preamble and
appends one short question, expecting a near-single-token answer.

Structure: single-round sessions over a pool of task templates (one per
"subject", MMLU-style).  Compared to :mod:`repro.workloads.docqa` the
shared prefixes are an order of magnitude shorter and the pool is larger,
so per-entry FLOP savings are modest and hit *frequency* carries the value
— the regime where plain recency-based policies are closest to Marconi, a
useful contrast case for ablations.
"""

from __future__ import annotations

from repro.workloads.distributions import GeometricCount, LogNormalLength
from repro.workloads.sessions import SessionShape

FEWSHOT_SHAPE = SessionShape(
    name="fewshot",
    rounds=GeometricCount(mean=1.0, minimum=1, maximum=1),
    first_turn=LogNormalLength(median=70, sigma=0.5, minimum=10, maximum=500),
    later_turn=LogNormalLength(median=70, sigma=0.5, minimum=10, maximum=500),
    output=LogNormalLength(median=3, sigma=0.7, minimum=1, maximum=40),
    shared_prefix_prob=1.0,
    n_templates=57,  # MMLU's subject count
    template_length=LogNormalLength(median=1400, sigma=0.45, minimum=400, maximum=5000),
    template_zipf=1.0,
    max_context_tokens=16000,
    global_preamble_tokens=60,
)
