"""Offline reuse-taxonomy analysis of a trace (paper section 4.1).

Marconi's admission policy rests on a two-class taxonomy of prefix reuse:

* **purely input** — the reused prefix appeared in a *previous request's
  input* (system prompts, few-shot examples, shared documents);
* **input + output** — the reused prefix contains a previous request's
  *output* tokens too (conversation history, agent trajectories).

This analyzer measures, for every request of a trace, how many of its input
tokens fall into each class assuming an unbounded cache — i.e. the reuse
*opportunity* a caching policy is competing for, independent of capacity.
It doubles as a workload-characterization tool: traces dominated by the
purely-input class reward branch-point checkpoints, traces dominated by
input + output reward last-token checkpoints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.radix_tree import RadixTree
from repro.metrics.reporting import ascii_table
from repro.workloads.trace import Trace


class ReuseClass(str, enum.Enum):
    """Dominant reuse class of one request."""

    NONE = "none"
    PURELY_INPUT = "purely_input"
    INPUT_OUTPUT = "input_output"


@dataclass(frozen=True)
class RequestReuse:
    """Reuse opportunity of a single request.

    ``purely_input`` counts leading tokens shared with some earlier
    request's *input*; ``input_output`` counts the additional leading
    tokens reachable only through an earlier request's full (input +
    output) sequence.  The two spans are disjoint and contiguous:
    ``purely_input + input_output <= input_len``.
    """

    session_id: int
    round_index: int
    input_len: int
    purely_input: int
    input_output: int

    @property
    def total_reusable(self) -> int:
        return self.purely_input + self.input_output

    @property
    def fresh(self) -> int:
        """Input tokens that no earlier request can supply."""
        return self.input_len - self.total_reusable

    @property
    def reuse_class(self) -> ReuseClass:
        if self.input_output > 0:
            return ReuseClass.INPUT_OUTPUT
        if self.purely_input > 0:
            return ReuseClass.PURELY_INPUT
        return ReuseClass.NONE


@dataclass
class TaxonomyReport:
    """Aggregate reuse-opportunity statistics for one trace."""

    trace_name: str
    requests: list[RequestReuse] = field(default_factory=list)
    branch_splits: int = 0

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def input_tokens(self) -> int:
        return sum(r.input_len for r in self.requests)

    @property
    def purely_input_tokens(self) -> int:
        return sum(r.purely_input for r in self.requests)

    @property
    def input_output_tokens(self) -> int:
        return sum(r.input_output for r in self.requests)

    @property
    def fresh_tokens(self) -> int:
        return sum(r.fresh for r in self.requests)

    @property
    def reusable_token_share(self) -> float:
        """Upper bound on any cache's token hit rate for this trace."""
        if self.input_tokens == 0:
            return 0.0
        return (self.purely_input_tokens + self.input_output_tokens) / self.input_tokens

    def class_counts(self) -> dict[ReuseClass, int]:
        """Number of requests whose dominant reuse falls in each class."""
        counts = {cls: 0 for cls in ReuseClass}
        for request in self.requests:
            counts[request.reuse_class] += 1
        return counts

    def summary_table(self) -> str:
        """Human-readable per-class share breakdown."""
        total = max(1, self.input_tokens)
        counts = self.class_counts()
        rows = [
            ["purely_input", str(counts[ReuseClass.PURELY_INPUT]),
             str(self.purely_input_tokens), f"{self.purely_input_tokens / total:.1%}"],
            ["input_output", str(counts[ReuseClass.INPUT_OUTPUT]),
             str(self.input_output_tokens), f"{self.input_output_tokens / total:.1%}"],
            ["none (fresh)", str(counts[ReuseClass.NONE]),
             str(self.fresh_tokens), f"{self.fresh_tokens / total:.1%}"],
        ]
        return ascii_table(
            ["class", "requests", "tokens", "token share"], rows,
        )


def classify_trace(trace: Trace) -> TaxonomyReport:
    """Classify every request's reuse opportunity under an unbounded cache.

    The trace's nominal log is read in order.  Two radix trees accumulate
    history: a begin's input goes into one over *inputs only* (defines the
    purely-input span), a commit's full sequence into one over *full
    sequences* (defines the total reusable span; whatever it matches beyond
    the input-only span must traverse output tokens).  The split count on
    the inputs tree is also reported — it is the frequency at which
    Marconi's speculative insertion would fire for this trace.
    """
    inputs_tree = RadixTree()
    full_tree = RadixTree()
    report = TaxonomyReport(trace_name=trace.name)

    for event, (session_id, round_index), tokens, now in trace.nominal_log():
        if event == "commit":
            full_tree.insert(tokens, now)
            continue
        # A prefix hit must leave at least the final input token to prefill.
        usable = len(tokens) - 1
        purely = min(inputs_tree.match(tokens).matched_len, usable)
        total = min(full_tree.match(tokens).matched_len, usable)
        report.requests.append(
            RequestReuse(
                session_id=session_id,
                round_index=round_index,
                input_len=len(tokens),
                purely_input=purely,
                input_output=max(0, total - purely),
            )
        )
        if inputs_tree.insert(tokens, now).created_intermediate_node:
            report.branch_splits += 1

    return report
