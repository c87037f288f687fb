"""Long-document QA workload (LooGLE-like; paper section 4.1 taxonomy).

The paper lists "long-document QA (Li et al., 2023)" among the *purely
input* reuse scenarios: many independent questions are asked against the
same long document, so requests share a huge input-only prefix (global
instruction preamble + document) and differ only in a short trailing
question.

Structure: each "session" is a single request — one question over one
document drawn from a small Zipf-popular pool of long documents.  Reuse is
entirely cross-session and input-only, which makes this the workload where
Marconi's speculative-insertion branch checkpoints carry all the value (the
last-decoded-token checkpoints are nearly useless because answers are never
extended).  Document lengths follow the LooGLE regime of ~10K-30K tokens,
so a single shared document dominates each request's FLOPs.
"""

from __future__ import annotations

from repro.workloads.distributions import GeometricCount, LogNormalLength
from repro.workloads.sessions import SessionShape

DOCQA_SHAPE = SessionShape(
    name="docqa",
    rounds=GeometricCount(mean=1.0, minimum=1, maximum=1),
    first_turn=LogNormalLength(median=40, sigma=0.6, minimum=6, maximum=400),
    later_turn=LogNormalLength(median=40, sigma=0.6, minimum=6, maximum=400),
    output=LogNormalLength(median=90, sigma=0.8, minimum=8, maximum=800),
    shared_prefix_prob=1.0,
    n_templates=6,
    template_length=LogNormalLength(median=16000, sigma=0.4, minimum=8000, maximum=30000),
    template_zipf=1.1,
    max_context_tokens=40000,
    global_preamble_tokens=180,
)
