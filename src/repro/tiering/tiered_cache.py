"""`TieredMarconiCache`: Marconi's cache with a demote/promote second tier.

The primary tier is the unmodified Marconi radix-tree cache (admission,
FLOP-aware eviction, tree mechanics).  Two hooks add the hierarchy:

* **Demotion** — when the primary tier evicts a node holding a recurrent
  checkpoint, a self-contained copy of the prefix state (checkpoint plus
  the full prefix's KVs) is offered to the second-tier store instead of
  being discarded.
* **Promotion** — a lookup that would miss (or hit shallower) in the
  primary tree first probes the second tier for a deeper exact prefix; on
  a match the checkpoint is re-admitted into the tree, the request is
  served from it, and the fetched bytes are reported as second-tier bytes
  so the engine prices them at the slower bandwidth.

Demotion only applies to checkpointed prefixes: with recurrent layers in
the model those are the only entries that can serve an "all or nothing"
hit on their own, and self-containment (KVs included) is what makes the
promoted state usable without the tree context it left behind.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.cache import MarconiCache
from repro.core.eviction import EvictionCandidate
from repro.core.interfaces import as_token_array
from repro.core.radix_tree import MatchResult
from repro.core.tokens import TokenSeq
from repro.models.config import ModelConfig
from repro.models.memory import transfer_state_bytes
from repro.tiering.secondary import SecondaryEntry, SecondaryStore


class TieredMarconiCache(MarconiCache):
    """Two-tier prefix cache: a Marconi primary plus a flat secondary.

    Parameters
    ----------
    model, capacity_bytes:
        As for :class:`~repro.core.cache.MarconiCache`; ``capacity_bytes``
        is the *primary* tier budget.
    secondary_bytes:
        Second-tier budget.  Zero disables the hierarchy (the cache then
        behaves exactly like a single-tier Marconi cache).
    secondary_policy:
        Eviction policy of the second tier (see
        :class:`~repro.tiering.secondary.SecondaryStore`).
    """

    def __init__(
        self,
        model: ModelConfig,
        capacity_bytes: int,
        secondary_bytes: int,
        *,
        secondary_policy: str = "lru",
        **kwargs,
    ) -> None:
        super().__init__(model, capacity_bytes, **kwargs)
        self.secondary = SecondaryStore(secondary_bytes, policy=secondary_policy)

    def reset(self) -> None:
        super().reset()
        self.secondary.clear()

    def check_integrity(self) -> None:
        """Also: the second tier is consistent."""
        super().check_integrity()
        self.secondary.check_integrity()

    # ------------------------------------------------------------------
    # Demotion (primary eviction hook)
    # ------------------------------------------------------------------
    def _entry_bytes(self, seq_len: int) -> int:
        """Self-contained footprint of a demoted prefix of ``seq_len`` tokens.

        Identical to the steering planner's transfer payload sizing —
        a demoted entry and a shipped prefix carry the same state.
        """
        return transfer_state_bytes(self.model, seq_len)

    def _apply_eviction(self, victim: EvictionCandidate) -> None:
        node = victim.node
        if (
            node.has_ssm_state
            and self.model.has_recurrent_layers
            and self.secondary.capacity_bytes > 0
        ):
            tokens = node.path_tokens()
            nbytes = self._entry_bytes(node.seq_len)
            accepted = self.secondary.insert(
                tokens,
                nbytes,
                now=node.last_access,
                flop_efficiency=self._flops_table[node.seq_len] / nbytes,
                payload=node.state_payload,
            )
            key = "demotions" if accepted else "demotions_rejected"
            self._stats.extra[key] = self._stats.extra.get(key, 0) + 1
        super()._apply_eviction(victim)

    # ------------------------------------------------------------------
    # Cross-replica state transfers (cluster steering hook)
    # ------------------------------------------------------------------
    def receive_state_transfer(
        self, tokens: np.ndarray, nbytes: int, now: float, payload: Any = None
    ) -> bool:
        """Accept a self-contained prefix state copied from another replica.

        The span lands in the *second* tier — the same place local
        demotions go — so the very next request extending this prefix
        promotes it through the standard tiering path and pays the
        second-tier fetch bandwidth for it.  Returns False when the model
        cannot use self-contained states (no recurrent layers) or the
        second tier is disabled or rejects the entry.
        """
        tokens = as_token_array(tokens)
        if nbytes <= 0:
            raise ValueError(f"transfer nbytes must be positive, got {nbytes}")
        if (
            len(tokens) == 0
            or not self.model.has_recurrent_layers
            or self.secondary.capacity_bytes <= 0
        ):
            self._stats.extra["transfers_rejected"] = (
                self._stats.extra.get("transfers_rejected", 0) + 1
            )
            return False
        accepted = self.secondary.receive_transfer(
            tokens,
            int(nbytes),
            now,
            flop_efficiency=self._flops_table[len(tokens)] / int(nbytes),
            payload=payload,
        )
        key = "transfers_in" if accepted else "transfers_rejected"
        self._stats.extra[key] = self._stats.extra.get(key, 0) + 1
        return accepted

    # ------------------------------------------------------------------
    # Promotion (begin hook)
    # ------------------------------------------------------------------
    def _deepen_match(self, seq: TokenSeq, match: MatchResult, now: float):
        if not self.model.has_recurrent_layers or self.secondary.capacity_bytes <= 0:
            return match, 0
        limit = len(seq) - 1
        primary_hit = match.deepest_ssm_node(max_seq_len=limit)
        primary_len = primary_hit.seq_len if primary_hit is not None else 0
        entry = self.secondary.longest_match(seq, limit, now)
        if entry is None or entry.seq_len <= primary_len:
            return match, 0
        promoted = self._promote(entry, now)
        # The attempt inserted and evicted whether or not it succeeded.
        match = self.tree.match(seq)
        if not promoted:
            return match, 0
        self._stats.extra["secondary_hits"] = (
            self._stats.extra.get("secondary_hits", 0) + 1
        )
        # The whole reused state came out of the second tier.
        return match, entry.nbytes

    def _promote(self, entry: SecondaryEntry, now: float) -> bool:
        """Re-admit a demoted checkpoint into the primary tree.

        Returns False (leaving the tree untouched) when the primary tier
        cannot make room — the entry then stays in the second tier and the
        request proceeds as a plain miss.
        """
        outcome = self.tree.insert(entry.tokens, now)
        end = outcome.end_node
        want_checkpoint = not end.has_ssm_state
        kv_cost = outcome.new_edge_tokens * self._kv_per_token
        checkpoint_cost = self._recurrent_bytes if want_checkpoint else 0

        self.tree.pin_path(end)
        fits = self._ensure_free(kv_cost + checkpoint_cost)
        self.tree.unpin_path(end)
        if not fits:
            self.tree.undo_insert(outcome.new_leaf, outcome.split_node)
            self._stats.extra["promotions_failed"] = (
                self._stats.extra.get("promotions_failed", 0) + 1
            )
            return False

        self._used += kv_cost + checkpoint_cost
        if want_checkpoint:
            self.tree.set_checkpoint(end)
        self.tree.refresh_access(end, now)
        if self.store_states:
            end.state_payload = entry.payload
        self.secondary.remove(entry.tokens)
        self._stats.extra["promotions"] = self._stats.extra.get("promotions", 0) + 1
        return True
