"""Cache persistence: save/restore the radix tree across server restarts.

A production cache's *bookkeeping* outlives a process: on a planned restart
an operator wants the warm tree back (which prefixes are checkpointed, how
recently, how often hit) rather than paying the cold-start hit-rate dip.
This module serializes exactly that bookkeeping — structure, checkpoint
flags, and per-node statistics — as one compressed ``.npz``.

Real model-state payloads (``store_states=True``) are deliberately *not*
persisted: they live in GPU/CPU memory and are orders of magnitude larger
than the bookkeeping; a reloaded tree serves as a warm *index* whose
checkpoints are re-materialized lazily (a lookup that maps to a payloadless
checkpoint falls back to a full prefill, exactly like
:class:`repro.serving.engine.ExactReuseServer` already handles).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.cache import MarconiCache
from repro.core.node import RadixNode
from repro.core.radix_tree import RadixTree
from repro.models.config import ModelConfig

_FORMAT_VERSION = 1
_META_KEYS = ("format_version", "model_name", "capacity_bytes", "used_bytes", "n_nodes")
_NODE_COLUMNS = (
    "parent",
    "edge_lengths",
    "has_ssm_state",
    "last_access",
    "created_at",
    "hit_count",
)


def save_cache(cache: MarconiCache, path: str | Path) -> None:
    """Serialize ``cache``'s tree and statistics to ``path`` (``.npz``).

    Refuses to save while requests are in flight (pinned paths): a pin is
    a promise to an ongoing prefill, which cannot survive a restart.
    """
    nodes = list(cache.tree.iter_nodes())
    if any(node.is_pinned for node in nodes):
        raise ValueError("cannot save a cache with in-flight (pinned) requests")

    index_of = {id(cache.tree.root): -1}
    for position, node in enumerate(nodes):
        index_of[id(node)] = position

    edge_tokens = np.frombuffer(b"".join(node.edge_tokens for node in nodes), dtype=np.int32)
    meta = {
        "format_version": _FORMAT_VERSION,
        "model_name": cache.model.name,
        "capacity_bytes": cache.capacity_bytes,
        "used_bytes": cache.used_bytes,
        "n_nodes": len(nodes),
    }
    np.savez_compressed(
        Path(path),
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        parent=np.asarray([index_of[id(n.parent)] for n in nodes], dtype=np.int64),
        edge_lengths=np.asarray([n.kv_tokens for n in nodes], dtype=np.int64),
        edge_tokens=edge_tokens,
        has_ssm_state=np.asarray([n.has_ssm_state for n in nodes], dtype=np.bool_),
        last_access=np.asarray([n.last_access for n in nodes], dtype=np.float64),
        created_at=np.asarray([n.created_at for n in nodes], dtype=np.float64),
        hit_count=np.asarray([n.hit_count for n in nodes], dtype=np.int64),
    )


def _read_snapshot(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a snapshot and validate everything :func:`load_tree` indexes by.

    A snapshot is a file from outside the process: whatever is wrong with it
    is reported here, once, as ``ValueError("corrupt snapshot: ...")`` rather
    than surfacing later as a ``KeyError`` / ``IndexError`` or as a
    well-formed tree that is not the one that was saved.
    """

    def corrupt(why: str) -> ValueError:
        return ValueError(f"corrupt snapshot: {why}")

    with np.load(Path(path)) as data:
        names = ("meta", "edge_tokens", *_NODE_COLUMNS)
        missing = [name for name in names if name not in data.files]
        if missing:
            raise corrupt(f"missing arrays {missing}")
        arrays = {name: data[name] for name in names}
    try:
        meta = json.loads(bytes(arrays.pop("meta")).decode())
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise corrupt("meta is not JSON") from exc
    if not isinstance(meta, dict) or not all(key in meta for key in _META_KEYS):
        raise corrupt(f"meta must be an object with the keys {_META_KEYS}")
    if meta["format_version"] != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported cache snapshot version {meta['format_version']!r}"
        )
    n = meta["n_nodes"]
    short = [name for name in _NODE_COLUMNS if arrays[name].shape != (n,)]
    if short:
        raise corrupt(f"columns {short} do not hold one value per node ({n})")
    parent, lengths, tokens = (
        arrays[name] for name in ("parent", "edge_lengths", "edge_tokens")
    )
    if any(a.dtype.kind not in "iu" for a in (parent, lengths, tokens)):
        raise corrupt("parent, edge_lengths and edge_tokens must hold integers")
    if not np.all((parent >= -1) & (parent < np.arange(n))):
        raise corrupt("a parent is neither -1 (the root) nor an earlier node")
    if not np.all(lengths > 0):
        raise corrupt("non-positive edge length")
    if tokens.ndim != 1 or int(lengths.sum()) != len(tokens):
        raise corrupt(
            f"edge lengths sum to {int(lengths.sum())}, {tokens.shape} tokens stored"
        )
    return meta, arrays


def load_tree(path: str | Path) -> tuple[RadixTree, dict]:
    """Deserialize a tree saved by :func:`save_cache`; returns (tree, meta)."""
    meta, arrays = _read_snapshot(path)
    parent = arrays["parent"]
    edge_lengths = arrays["edge_lengths"]
    edge_tokens = arrays["edge_tokens"].astype(np.int32, copy=False)
    has_ssm = arrays["has_ssm_state"]
    last_access = arrays["last_access"]
    created_at = arrays["created_at"]
    hit_count = arrays["hit_count"]

    tree = RadixTree()
    nodes: list[RadixNode] = []
    offsets = np.concatenate([[0], np.cumsum(edge_lengths)]).tolist()
    for i in range(len(edge_lengths)):
        parent_index = int(parent[i])
        parent_node = tree.root if parent_index == -1 else nodes[parent_index]
        node = RadixNode(
            np.frombuffer(edge_tokens[offsets[i] : offsets[i + 1]].tobytes(), dtype=np.int32),
            parent=parent_node,
            now=float(created_at[i]),
        )
        if node.first_token in parent_node.children:
            raise ValueError(
                f"corrupt snapshot: two children of node {parent_index} start "
                f"with token {node.first_token}"
            )
        node.has_ssm_state = bool(has_ssm[i])
        node.last_access = float(last_access[i])
        node.hit_count = int(hit_count[i])
        parent_node.children[node.first_token] = node
        nodes.append(node)
    tree.check_integrity()
    return tree, meta


def load_cache(
    model: ModelConfig,
    capacity_bytes: int,
    path: str | Path,
    **cache_kwargs,
) -> MarconiCache:
    """Rebuild a warm :class:`MarconiCache` from a snapshot.

    The snapshot's model name must match ``model`` (byte accounting is
    architecture-specific).  Loading into a *smaller* capacity is allowed:
    the cache immediately evicts, using its configured policy, until the
    warm contents fit.
    """
    tree, meta = load_tree(path)
    if meta["model_name"] != model.name:
        raise ValueError(
            f"snapshot was taken for model {meta['model_name']!r}, "
            f"not {model.name!r}"
        )
    cache = MarconiCache(model, capacity_bytes, **cache_kwargs)
    cache.tree = tree  # the setter re-seeds the eviction index and byte count
    if cache.used_bytes > capacity_bytes:
        # Shrink to fit with the cache's own eviction policy.
        if not cache._ensure_free(0):
            raise ValueError(
                "snapshot contents cannot be shrunk to the requested capacity"
            )
    return cache
