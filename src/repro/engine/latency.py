"""Analytic latency model calibrated to an A100-class FP16 accelerator.

Prefill is compute-bound, so its latency is skipped-FLOP-aware:
``overhead + suffix_flops / (peak * MFU) + reused_bytes / fetch_bandwidth``.
The fetch term charges for pulling reused states from the (CPU-side) prefix
cache over PCIe.  Decode is memory-bandwidth-bound and modeled as a fixed
per-token time; it never blocks the prefill executor but it does gate the
session's next round.

Defaults: A100 dense FP16 peak 312 TFLOP/s at 50% MFU, 25 GB/s fetch
bandwidth (PCIe 4.0 x16 effective), 4 ms prefill launch overhead, 10 ms per
decoded token — which put a 7B hybrid's full-prefill TTFT for a 10K-token
request near 0.9 s, matching the scale of the paper's TTFT plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

from repro.models.config import ModelConfig
from repro.models.flops import model_suffix_prefill_flops


@dataclass(frozen=True)
class LatencyModel:
    """Maps token counts and reuse to seconds."""

    peak_flops_per_s: float = 312e12
    mfu: float = 0.5
    decode_seconds_per_token: float = 0.010
    prefill_overhead_s: float = 0.004
    fetch_bandwidth_bytes_per_s: float = 25e9
    secondary_fetch_bandwidth_bytes_per_s: float = 8e9
    # Cross-replica state transfers (cluster steering): an RDMA-ish
    # inter-node link — per-transfer launch latency plus a bandwidth term.
    transfer_bandwidth_bytes_per_s: float = 12e9
    transfer_latency_s: float = 0.003
    # Stitching a transferred prefix head onto a locally recomputed tail
    # (split-point steering): one KV-layout merge pass, charged once after
    # both halves are ready.
    split_merge_s: float = 0.0005

    def __post_init__(self) -> None:
        # NaN passes the range tests below, inf most (a subclass's fields may not be numbers).
        for name in (spec.name for spec in fields(LatencyModel)):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.peak_flops_per_s <= 0 or not 0 < self.mfu <= 1:
            raise ValueError("need peak_flops_per_s > 0 and 0 < mfu <= 1")
        if self.decode_seconds_per_token < 0 or self.prefill_overhead_s < 0:
            raise ValueError("latencies must be non-negative")
        if self.fetch_bandwidth_bytes_per_s <= 0:
            raise ValueError("fetch_bandwidth_bytes_per_s must be positive")
        if self.secondary_fetch_bandwidth_bytes_per_s <= 0:
            raise ValueError("secondary_fetch_bandwidth_bytes_per_s must be positive")
        if self.transfer_bandwidth_bytes_per_s <= 0:
            raise ValueError("transfer_bandwidth_bytes_per_s must be positive")
        if self.transfer_latency_s < 0:
            raise ValueError("transfer_latency_s must be non-negative")
        if self.split_merge_s < 0:
            raise ValueError("split_merge_s must be non-negative")

    @property
    def effective_flops_per_s(self) -> float:
        return self.peak_flops_per_s * self.mfu

    def prefill_seconds(
        self,
        model: ModelConfig,
        seq_len: int,
        reused_len: int = 0,
        reused_bytes: int = 0,
        secondary_bytes: int = 0,
    ) -> float:
        """Time to prefill ``seq_len`` tokens reusing a ``reused_len`` prefix.

        ``secondary_bytes`` is the portion of ``reused_bytes`` that comes
        from a second-tier store (tiered caches) and is priced at the
        slower secondary bandwidth; the remainder uses the primary fetch
        bandwidth.
        """
        if reused_bytes < 0:
            raise ValueError(
                f"reused_bytes must be non-negative, got {reused_bytes}"
            )
        if not 0 <= secondary_bytes <= reused_bytes:
            raise ValueError(
                f"secondary_bytes must be within [0, reused_bytes], got "
                f"{secondary_bytes} of {reused_bytes}"
            )
        flops = model_suffix_prefill_flops(model, seq_len, reused_len)
        compute = flops / self.effective_flops_per_s
        fetch = (reused_bytes - secondary_bytes) / self.fetch_bandwidth_bytes_per_s
        fetch += secondary_bytes / self.secondary_fetch_bandwidth_bytes_per_s
        return self.prefill_overhead_s + compute + fetch

    def prefill_seconds_batch(
        self,
        model: ModelConfig,
        items: "Sequence[tuple[int, int, int, int]]",
    ) -> list[float]:
        """Vectorized :meth:`prefill_seconds` over a scheduler batch.

        ``items`` holds ``(seq_len, reused_len, reused_bytes,
        secondary_bytes)`` per request.  Invariant terms (effective FLOP/s,
        bandwidths, launch overhead) are hoisted out of the loop; each
        element's arithmetic keeps the scalar method's exact expression
        order, so the two paths are bit-identical float for float — the
        batch API is a per-call-overhead optimization, not a reformulation.
        """
        eff = self.peak_flops_per_s * self.mfu  # == effective_flops_per_s
        fetch_bw = self.fetch_bandwidth_bytes_per_s
        secondary_bw = self.secondary_fetch_bandwidth_bytes_per_s
        overhead = self.prefill_overhead_s
        out = []
        for seq_len, reused_len, reused_bytes, secondary_bytes in items:
            if reused_bytes < 0:
                raise ValueError(
                    f"reused_bytes must be non-negative, got {reused_bytes}"
                )
            if not 0 <= secondary_bytes <= reused_bytes:
                raise ValueError(
                    f"secondary_bytes must be within [0, reused_bytes], got "
                    f"{secondary_bytes} of {reused_bytes}"
                )
            flops = model_suffix_prefill_flops(model, seq_len, reused_len)
            compute = flops / eff
            fetch = (reused_bytes - secondary_bytes) / fetch_bw
            fetch += secondary_bytes / secondary_bw
            out.append(overhead + compute + fetch)
        return out

    def vanilla_prefill_seconds(self, model: ModelConfig, seq_len: int) -> float:
        """Full-prefill time with no cache reuse."""
        return self.prefill_seconds(model, seq_len, 0, 0)

    def decode_seconds(self, n_tokens: int) -> float:
        """Time to decode ``n_tokens`` output tokens."""
        if n_tokens < 0:
            raise ValueError(f"n_tokens must be non-negative, got {n_tokens}")
        return n_tokens * self.decode_seconds_per_token

    def transfer_seconds(self, nbytes: int) -> float:
        """Time to copy ``nbytes`` of cached state between two replicas."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        return self.transfer_latency_s + nbytes / self.transfer_bandwidth_bytes_per_s
