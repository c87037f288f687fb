"""`MarconiCache`: the paper's prefix cache (admission + eviction + accounting).

The cache manages KVs and recurrent states *holistically in one radix tree*
(section 4): each node owns the KVs of its edge and, when checkpointed, one
full-model recurrent state.  The serving engine drives the transactional
session protocol of :class:`repro.core.interfaces.PrefixCache`:

``begin`` (prefill start)
    * finds the longest reusable prefix — for hybrid models the deepest
      exactly-matching checkpointed node; for pure Transformers the raw
      common-prefix length,
    * commits the input path into the tree (charging its KV bytes), and
    * when the insertion splits an edge — the speculative-insertion signal
      that a "purely input" shared prefix exists — checkpoints the new
      branch-point node.

``session.commit`` (decode end)
    * extends the path with the generated tokens and checkpoints the state
      of the last decoded token, the resume point of "input + output" reuse.

``session.abort`` (cancellation / failure)
    * releases the lookup-time pin and rolls back whatever the begin-time
      speculative insertion added that no other request has since built on
      (the new edge's KVs, the branch checkpoint, the edge split).

Pinning protects the states of in-flight requests between begin and close.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.alpha_tuner import AlphaTuner, AlphaTunerConfig
from repro.core.eviction import (
    EvictionCandidate,
    EvictionPolicy,
    FlopAwareEviction,
    make_eviction_policy,
)
from repro.core.eviction_index import EvictionIndex
from repro.core.interfaces import (
    AdmitResult,
    LookupResult,
    PrefixCache,
    RequestSession,
)
from repro.core.node import RadixNode
from repro.core.radix_tree import MatchResult, RadixTree
from repro.core.stats import CacheStats
from repro.core.tokens import TokenSeq
from repro.models.config import ModelConfig
from repro.models.efficiency import node_flop_efficiency
from repro.models.flops import model_prefill_flops, prefill_flops_table
from repro.models.memory import (
    kv_bytes_per_token,
    model_recurrent_bytes,
    node_state_bytes,
)


class MarconiSession(RequestSession):
    """Marconi's request session: the pin/rollback state machine.

    Carries everything the cache pinned or speculatively inserted at begin
    time, so commit knows what to extend and abort knows what to undo.
    """

    __slots__ = (
        "input_seq",
        "end_node",
        "pinned_node",
        "branch_node",
        "new_leaf",
        "split_node",
        "rolled_back",
    )

    def __init__(self, cache: "MarconiCache", input_seq: TokenSeq) -> None:
        super().__init__(cache)
        self.input_seq = input_seq  # what commit's full sequence must extend
        self.end_node: Optional[RadixNode] = None
        self.pinned_node: Optional[RadixNode] = None
        self.branch_node: Optional[RadixNode] = None
        self.new_leaf: Optional[RadixNode] = None
        self.split_node: Optional[RadixNode] = None
        self.rolled_back: bool = False


class MarconiCache(PrefixCache):
    """Prefix cache for hybrid (and pure) LLMs with Marconi's policies.

    Parameters
    ----------
    model:
        Architecture whose states are being cached; drives all byte and
        FLOP accounting and the hit semantics (exact-match checkpoints for
        hybrid models, token-granular KV reuse for pure Transformers).
    capacity_bytes:
        Cache budget.
    eviction:
        ``"flop_aware"`` (Marconi), ``"lru"`` (SGLang+ / policy V1), or one
        of the ablation comparators (``"gdsf"``, ``"gds"``, ``"lfu"``,
        ``"lru_k"``, ``"random"``); see
        :func:`repro.core.eviction.make_eviction_policy`.
    alpha:
        Fixed FLOP-efficiency weight.  ``None`` with ``flop_aware`` enables
        the paper's bootstrap tuner: LRU behaviour (``alpha = 0``) until the
        first eviction, a recording window, then a grid-search replay that
        adopts the hit-rate-maximizing alpha.
    store_states:
        When True, checkpoint nodes carry caller-provided model-state
        payloads (used by the executable-model serving layer).

    Eviction candidates come from an incrementally maintained
    :class:`~repro.core.eviction_index.EvictionIndex` observing the tree;
    the FLOP-aware policy renormalizes over all of them before every victim
    (the paper's exact semantics).
    """

    def __init__(
        self,
        model: ModelConfig,
        capacity_bytes: int,
        *,
        eviction: str = "flop_aware",
        alpha: Optional[float] = None,
        tuner_config: Optional[AlphaTunerConfig] = None,
        store_states: bool = False,
        efficiency_mode: str = "prefix_per_freed",
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes}")
        self.model = model
        self._capacity = int(capacity_bytes)
        self._eviction_name = eviction
        self._fixed_alpha = alpha
        self.store_states = store_states
        self.efficiency_mode = efficiency_mode
        self._tuner_config = tuner_config or AlphaTunerConfig()

        # Per-model byte constants, bound once: the eviction index refreshes
        # candidates on every tree mutation, and each refresh needs both.
        self._kv_per_token = kv_bytes_per_token(model)
        self._recurrent_bytes = model_recurrent_bytes(model)
        self._flops_table = prefill_flops_table(model)

        self._index: Optional[EvictionIndex] = None  # until the first tree, below
        self._used = 0
        self._stats = CacheStats()
        self.tuner: Optional[AlphaTuner] = None
        self.policy: EvictionPolicy = self._build_policy()
        self.tree = RadixTree()  # property setter attaches the index

    def _build_policy(self) -> EvictionPolicy:
        if self._eviction_name == "flop_aware" and self._fixed_alpha is None:
            # Auto-tuning mode: behave as LRU (alpha = 0) until tuned.
            self.tuner = AlphaTuner(self._tuner_config)
            return FlopAwareEviction(alpha=0.0)
        self.tuner = None
        return make_eviction_policy(self._eviction_name, self._fixed_alpha)

    # ------------------------------------------------------------------
    # Tree attachment (keeps the eviction index observing the live tree)
    # ------------------------------------------------------------------
    @property
    def tree(self) -> RadixTree:
        return self._tree

    @tree.setter
    def tree(self, tree: RadixTree) -> None:
        """Adopt ``tree``, rebuilding the eviction index against it.

        Assigning a tree (reset, persistence reload, the tuner's replay
        snapshot) re-seeds the index with its one-and-only full scan and
        re-binds the policy's selector state.
        """
        if self._index is not None:
            self._tree.remove_observer(self._index)
        self._tree = tree
        self._index = EvictionIndex(
            tree, self._freeable_bytes, self._candidate_efficiency
        )
        self.policy.bind_index(self._index)
        # External observers (router directories) follow the live tree and
        # resync themselves via their on_tree_attached hook.
        self._reattach_tree_observers(tree)

    @property
    def eviction_index(self) -> EvictionIndex:
        """The maintained candidate index of the live tree."""
        return self._index

    @property
    def eviction_node_visits(self) -> int:
        """Nodes (re-)evaluated for eviction candidacy so far."""
        return self._index.node_visits

    # ------------------------------------------------------------------
    # PrefixCache surface
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def stats(self) -> CacheStats:
        return self._stats

    @property
    def alpha(self) -> float:
        """Current FLOP-efficiency weight (0.0 for LRU/GDSF policies)."""
        if isinstance(self.policy, FlopAwareEviction):
            return self.policy.alpha
        return 0.0

    def reset(self) -> None:
        self.detach_open_sessions()  # outstanding sessions must not touch the new tree
        self._used = 0
        self._stats = CacheStats()
        self.policy = self._build_policy()
        self.tree = RadixTree()  # after the policy so the index binds to it

    # ------------------------------------------------------------------
    # Begin (prefill start)
    # ------------------------------------------------------------------
    def _begin_session(self, tokens: np.ndarray, now: float) -> MarconiSession:
        seq = TokenSeq.of(tokens)  # interned handle: cached bytes feed the
        tokens = seq.arr  # tree's full-edge byte-compare fast path
        n = len(tokens)
        if n == 0:
            raise ValueError("cannot look up an empty token sequence")
        tree = self._tree
        has_recurrent = self.model.has_recurrent_layers
        match, slower_tier_bytes = self._deepen_match(seq, tree.match(seq), now)

        hit_tokens = 0
        reused_bytes = 0
        payload = None
        if has_recurrent:
            # All-or-nothing: the hit must end exactly on a checkpointed node,
            # and at least the final input token must be prefilled to produce
            # the first decode step's logits.
            hit_node = match.deepest_ssm_node(max_seq_len=n - 1)
            if hit_node is not None:
                hit_tokens = hit_node.seq_len
                reused_bytes = hit_tokens * self._kv_per_token + self._recurrent_bytes
                tree.touch(hit_node, now)
                self.policy.notify_access(hit_node, now)
                payload = hit_node.state_payload
        else:
            # Pure Transformer: KVs slice at token granularity.
            hit_tokens = min(match.matched_len, n - 1)
            if hit_tokens > 0:
                reused_bytes = hit_tokens * self._kv_per_token
                if match.path:
                    tree.touch(match.path[-1], now)
                    self.policy.notify_access(match.path[-1], now)

        self._stats.record_lookup(hit_tokens, n)
        self._stats.flops_saved += model_prefill_flops(self.model, hit_tokens)

        # Commit the input path (every system admits all KVs of the sequence;
        # Marconi is judicious only about recurrent checkpoints).  The match
        # above already walked the fully-matched prefix and nothing between
        # match and insert mutates tree structure, so insertion resumes from
        # the deepest fully-matched node instead of re-descending from root.
        outcome = tree.insert(
            seq, now, start=match.path[-1] if match.path else None
        )
        end = outcome.end_node
        tree.refresh_access(end, now)
        tree.pin_path(end)
        session = MarconiSession(self, seq)
        session.end_node = end
        session.pinned_node = end
        session.new_leaf = outcome.new_leaf
        session.split_node = outcome.split_node

        branch = outcome.split_node
        want_branch_checkpoint = (
            has_recurrent and branch is not None and not branch.has_ssm_state
        )
        kv_cost = outcome.new_edge_tokens * self._kv_per_token
        branch_cost = self._recurrent_bytes if want_branch_checkpoint else 0

        if self._ensure_free(kv_cost + branch_cost):
            self._used += kv_cost + branch_cost
            if want_branch_checkpoint:
                assert branch is not None
                tree.set_checkpoint(branch, now)
                session.branch_node = branch
        elif self._ensure_free(kv_cost):
            # Cache pressure: keep the KVs, drop the branch checkpoint.
            self._used += kv_cost
        elif self._charge_partial_leaf(outcome) == 0:
            # Not even a prefix of the input KVs fits (pinned working set
            # exceeds capacity): serve the request without caching its path.
            self._rollback_input_insert(session, outcome)

        checkpoint_positions = (
            [session.branch_node.seq_len] if session.branch_node is not None else []
        )
        session.result = LookupResult(
            hit_tokens=hit_tokens,
            input_tokens=n,
            reused_bytes=reused_bytes,
            checkpoint_positions=checkpoint_positions,
            state_payload=payload,
            reused_secondary_bytes=min(slower_tier_bytes, reused_bytes),
        )
        return session

    def _deepen_match(self, seq: TokenSeq, match: MatchResult, now: float):
        """The step between begin's match and its hit rule: a cache with a
        slower tier may bring a deeper prefix of ``seq`` into the tree here.
        Returns the match the hit rule reads (walked again only if the tree
        changed) and the bytes fetched from the slower tier (0: none)."""
        return match, 0

    def _charge_partial_leaf(self, outcome) -> int:
        """Truncate the just-inserted leaf to the longest affordable prefix.

        Called after eviction could not make room for the full new edge;
        whatever freeable space remains determines how many of the new
        tokens' KVs are kept.  Returns the bytes charged (0 when nothing
        fits or there is no new leaf to shrink).
        """
        leaf = outcome.new_leaf
        if leaf is None or leaf.parent is None or leaf.has_ssm_state:
            return 0
        per_token = self._kv_per_token
        if per_token <= 0:
            return 0
        affordable = (self._capacity - self._used) // per_token
        if affordable <= 0 or affordable >= leaf.kv_tokens:
            return 0
        self.tree.truncate_leaf(leaf, int(affordable))
        charged = int(affordable) * per_token
        self._used += charged
        return charged

    def _rollback_input_insert(self, session: MarconiSession, outcome) -> None:
        """Undo a just-committed input path that cannot be afforded."""
        assert session.pinned_node is not None
        self.tree.unpin_path(session.pinned_node)
        session.pinned_node = None
        session.end_node = None
        session.rolled_back = True
        self.tree.undo_insert(outcome.new_leaf, outcome.split_node)
        session.new_leaf = None
        session.split_node = None
        self._stats.record_admission(0, rejected=True)

    # ------------------------------------------------------------------
    # Commit (decode end)
    # ------------------------------------------------------------------
    def _commit_session(
        self,
        session: MarconiSession,
        tokens: np.ndarray,
        now: float,
        state_payload: Any = None,
    ) -> AdmitResult:
        seq = TokenSeq.of(tokens)
        tokens = seq.arr
        # Insertion resumes from the begin-time end node, so the sequence
        # must extend the begin input.  Two prefix handles of one buffer (a
        # trace session's rounds) settle that by length alone; otherwise one
        # memcmp (a root handle's whole-buffer slice is the buffer itself).
        begun = session.input_seq
        input_len = len(begun)
        if len(tokens) < input_len or not (
            seq.data is begun.data
            or seq.data.startswith(begun.data[: 4 * input_len])
        ):
            raise ValueError(
                f"commit must extend the {input_len}-token input the session "
                f"began with, got a {len(tokens)}-token sequence that does not"
            )
        if session.rolled_back:
            # The input path was never cached; skip the output too.
            self._finish_request(now, input_len, tokens)
            return AdmitResult(rejected=True)

        stats = self._stats
        tree = self._tree
        has_recurrent = self.model.has_recurrent_layers
        evicted_before = stats.evicted_bytes
        # The begin-time end node is pinned, so it is still attached, and its
        # path is a prefix of the full sequence (checked above; truncation
        # during a partial begin only shortens it): resume insertion there.
        outcome = tree.insert(seq, now, start=session.end_node)
        end = outcome.end_node
        # Protect the not-yet-charged extension (and the nodes the upcoming
        # eviction pass must not merge into it) before freeing space.  The
        # begin-time pin covers the shared ancestor segment, so the walk
        # stops there and the final ``unpin_path(end)`` below releases both
        # pins in one pass — identical counts, never exposed in between.
        tree.pin_path(end, stop=session.pinned_node)
        session.pinned_node = None
        want_leaf_checkpoint = has_recurrent and not end.has_ssm_state
        kv_cost = outcome.new_edge_tokens * self._kv_per_token
        leaf_cost = self._recurrent_bytes if want_leaf_checkpoint else 0

        rejected = False
        admitted = 0
        if self._ensure_free(kv_cost + leaf_cost):
            self._used += kv_cost + leaf_cost
            admitted = kv_cost + leaf_cost
            if want_leaf_checkpoint:
                tree.set_checkpoint(end)
            tree.refresh_access(end, now)
            if self.store_states and has_recurrent:
                end.state_payload = state_payload
            tree.unpin_path(end)
        elif self._ensure_free(kv_cost):
            # The checkpoint doesn't fit but the KVs do: admit KV-only.
            self._used += kv_cost
            admitted = kv_cost
            tree.refresh_access(end, now)
            tree.unpin_path(end)
        else:
            # Keep the longest affordable KV prefix of the extension (block
            # caches do the same by admitting as many prefix blocks as fit);
            # no checkpoint, since it would represent the untruncated edge.
            admitted = self._charge_partial_leaf(outcome)
            rejected = admitted == 0
            tree.unpin_path(end)
            if rejected:
                tree.undo_insert(outcome.new_leaf, None)
        stats.record_admission(admitted, rejected=rejected)

        self._finish_request(now, input_len, tokens)
        return AdmitResult(
            admitted_bytes=admitted,
            evicted_bytes=stats.evicted_bytes - evicted_before,
            rejected=rejected,
        )

    # ------------------------------------------------------------------
    # Abort (cancellation / failure)
    # ------------------------------------------------------------------
    def _abort_session(self, session: MarconiSession) -> None:
        """Release the begin-time pin and roll back the speculative insert.

        Rollback is conservative: state this request added is removed only
        when no other request has since built on it — a still-pinned node,
        a leaf that grew children, or a checkpoint that appeared on the new
        edge stays cached (and stays charged; the accounting invariant
        ``used_bytes == recompute_used_bytes()`` holds either way).
        """
        if session.pinned_node is not None:
            self.tree.unpin_path(session.pinned_node)
            session.pinned_node = None
        self._stats.extra["aborted_sessions"] = (
            self._stats.extra.get("aborted_sessions", 0) + 1
        )
        if session.rolled_back:
            return  # begin already rolled everything back

        # Drop the speculative branch checkpoint this request planned.
        branch = session.branch_node
        if (
            branch is not None
            and branch.parent is not None
            and branch.has_ssm_state
            and not branch.is_pinned
        ):
            self.tree.clear_checkpoint(branch)
            self._used -= self._recurrent_bytes
            session.branch_node = None

        # Remove the new edge's KVs unless another path grew through it, and
        # restore the original un-split edge when the split served only us.
        removed = self.tree.undo_insert(session.new_leaf, session.split_node)
        self._used -= removed * self._kv_per_token

    def _attach_session(
        self, session: MarconiSession, position: int, payload: Any
    ) -> None:
        node = session.branch_node
        if node is None or node.seq_len != position:
            raise ValueError(f"no pending branch checkpoint at position {position}")
        if self.store_states:
            node.state_payload = payload

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _node_bytes(self, node: RadixNode) -> int:
        return node_state_bytes(self.model, node.kv_tokens, node.has_ssm_state)

    def _freeable_bytes(self, node: RadixNode) -> int:
        if not node.children:  # leaf: the full entry (KVs + checkpoint) goes
            kv = len(node.edge_tokens) * self._kv_per_token
            return kv + self._recurrent_bytes if node.has_ssm_state else kv
        # Single-child intermediate node: only the checkpoint is released;
        # its KVs are absorbed by the child.
        if node.has_ssm_state:
            return self._recurrent_bytes
        return 0

    def _candidate_efficiency(self, node: RadixNode, freeable: int) -> float:
        # Inlined node_flop_efficiency "prefix_per_freed" hot path: probe the
        # shared prefill-FLOPs memo directly (same floats — the memo stores
        # the value model_prefill_flops would return) and skip two frames.
        if self.efficiency_mode == "prefix_per_freed":
            if freeable <= 0:
                return 0.0
            seq_len = node.seq_len
            saved = self._flops_table.get(seq_len)
            if saved is None:
                saved = model_prefill_flops(self.model, seq_len)
            return saved / freeable
        return node_flop_efficiency(
            self.model,
            node.seq_len,
            node.parent_seq_len,
            freeable,
            mode=self.efficiency_mode,
        )

    def _collect_candidates(self) -> list[EvictionCandidate]:
        """From-scratch candidate rebuild: the reference the index's
        property tests compare against (nothing on the serving path calls
        it)."""
        candidates = []
        for node in self.tree.iter_nodes():
            if node.is_pinned or node.n_children > 1:
                continue
            freeable = self._freeable_bytes(node)
            if freeable <= 0:
                continue
            candidates.append(
                EvictionCandidate(
                    node=node,
                    freeable_bytes=freeable,
                    flop_efficiency=self._candidate_efficiency(node, freeable),
                    last_access=node.last_access,
                    is_leaf=node.is_leaf,
                )
            )
        return candidates

    def _ensure_free(self, needed_bytes: int) -> bool:
        """Evict until ``needed_bytes`` fit; False if that proves impossible.

        Every victim goes through :meth:`_apply_eviction`, the hook tiered
        demotion overrides.
        """
        capacity = self._capacity
        if needed_bytes > capacity:
            return False
        policy = self.policy
        index = self._index
        tuner = self.tuner
        while capacity - self._used < needed_bytes:
            if len(index) == 0:
                return False
            victim = policy.select_from_index(index)
            self._apply_eviction(victim)
            policy.notify_eviction(victim)
            if tuner is not None:
                tuner.note_eviction()
        return True

    def _apply_eviction(self, victim: EvictionCandidate) -> None:
        node = victim.node
        freed = victim.freeable_bytes
        if node.is_leaf:
            self.tree.remove_leaf(node)
        else:
            self.tree.clear_checkpoint(node)
            self.tree.merge_into_child(node)
        self._used -= freed
        self._stats.record_eviction(freed)

    # ------------------------------------------------------------------
    # Alpha tuning plumbing
    # ------------------------------------------------------------------
    def _finish_request(
        self, now: float, input_len: int, full_tokens: np.ndarray
    ) -> None:
        if self.tuner is None:
            return
        self.tuner.after_request(self, now, input_len, full_tokens)

    def snapshot_for_replay(self) -> RadixTree:
        """Structural snapshot the tuner replays the bootstrap window against."""
        return self.tree.clone()

    def make_replay_cache(self, alpha: float, snapshot: RadixTree) -> "MarconiCache":
        """A throwaway cache seeded from ``snapshot`` with a fixed alpha.

        Assigning the cloned tree re-seeds the replica's eviction index
        in one scan.
        """
        replica = MarconiCache(
            self.model,
            self._capacity,
            eviction="flop_aware",
            alpha=alpha,
            store_states=False,
            efficiency_mode=self.efficiency_mode,
        )
        replica.tree = snapshot.clone()
        replica._used = sum(
            replica._node_bytes(node) for node in replica.tree.iter_nodes()
        )
        return replica

    def set_alpha(self, alpha: float) -> None:
        """Adopt a (tuned) alpha; only valid for the flop-aware policy."""
        if not isinstance(self.policy, FlopAwareEviction):
            raise ValueError(f"policy {self.policy.name!r} has no alpha to set")
        self.policy.alpha = alpha

    # ------------------------------------------------------------------
    # Introspection for tests
    # ------------------------------------------------------------------
    def recompute_used_bytes(self) -> int:
        """Re-derive occupancy from the tree (the accounting invariant)."""
        return sum(self._node_bytes(node) for node in self.tree.iter_nodes())
