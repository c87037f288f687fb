"""Tests for cache snapshot/restore (warm restarts)."""

import json

import numpy as np
import pytest

from repro.core.cache import MarconiCache
from repro.core.persistence import load_cache, load_tree, save_cache
from repro.models.memory import node_state_bytes
from repro.models.presets import transformer_7b
from repro.workloads.lmsys import generate_lmsys_trace


def toks(n, seed):
    return np.random.default_rng(seed).integers(0, 32000, size=n, dtype=np.int32)


def _warm_cache(hybrid, capacity=None, n=8):
    cache = MarconiCache(
        hybrid,
        capacity or 50 * node_state_bytes(hybrid, 2000, True),
        alpha=1.0,
    )
    shared = toks(200, 1)
    for i in range(n):
        seq = np.concatenate([shared, toks(100 + 13 * i, 100 + i)])
        s = cache.begin(seq, float(i))
        s.commit(np.concatenate([seq, toks(40, 200 + i)]), i + 0.5)
    return cache


class TestRoundtrip:
    def test_structure_and_stats_preserved(self, hybrid, tmp_path):
        cache = _warm_cache(hybrid)
        path = tmp_path / "cache.npz"
        save_cache(cache, path)
        tree, meta = load_tree(path)
        assert meta["model_name"] == hybrid.name
        assert meta["n_nodes"] == cache.tree.n_nodes

        original = {
            n.path_tokens().tobytes(): (n.has_ssm_state, n.last_access, n.hit_count)
            for n in cache.tree.iter_nodes()
        }
        restored = {
            n.path_tokens().tobytes(): (n.has_ssm_state, n.last_access, n.hit_count)
            for n in tree.iter_nodes()
        }
        assert restored == original

    def test_restored_cache_serves_same_hits(self, hybrid, tmp_path):
        cache = _warm_cache(hybrid)
        path = tmp_path / "cache.npz"
        save_cache(cache, path)
        warm = load_cache(hybrid, cache.capacity_bytes, path, alpha=1.0)
        assert warm.used_bytes == cache.used_bytes

        query = np.concatenate([toks(200, 1), toks(113, 100), toks(40, 200), toks(5, 999)])
        a = cache.begin(query, 100.0)
        b = warm.begin(query, 100.0)
        assert a.hit_tokens == b.hit_tokens > 0
        a.commit(np.concatenate([query, [1]]).astype(np.int32), 100.5)
        b.commit(np.concatenate([query, [1]]).astype(np.int32), 100.5)

    def test_warm_restart_preserves_trace_hit_rate(self, hybrid, tmp_path):
        """Splitting a trace across a save/load boundary loses nothing."""
        trace = generate_lmsys_trace(n_sessions=10, seed=61)
        requests = list(trace.iter_requests_nominal())
        half = len(requests) // 2
        capacity = 50 * node_state_bytes(hybrid, 3000, True)

        unbroken = MarconiCache(hybrid, capacity, alpha=1.0)
        for now, _, _, inp, full in requests:
            s = unbroken.begin(inp, now)
            s.commit(full, now)

        first = MarconiCache(hybrid, capacity, alpha=1.0)
        for now, _, _, inp, full in requests[:half]:
            s = first.begin(inp, now)
            s.commit(full, now)
        path = tmp_path / "restart.npz"
        save_cache(first, path)
        second = load_cache(hybrid, capacity, path, alpha=1.0)
        hit_tokens = first.stats.hit_tokens
        input_tokens = first.stats.input_tokens
        for now, _, _, inp, full in requests[half:]:
            s = second.begin(inp, now)
            s.commit(full, now)
        combined = (hit_tokens + second.stats.hit_tokens) / (
            input_tokens + second.stats.input_tokens
        )
        assert combined == pytest.approx(unbroken.stats.token_hit_rate)

    def test_empty_cache_roundtrip(self, hybrid, tmp_path):
        cache = MarconiCache(hybrid, int(1e9), alpha=0.0)
        path = tmp_path / "empty.npz"
        save_cache(cache, path)
        warm = load_cache(hybrid, int(1e9), path)
        assert warm.tree.n_nodes == 0
        assert warm.used_bytes == 0

    def test_pure_transformer_roundtrip(self, tmp_path):
        model = transformer_7b()
        cache = MarconiCache(model, int(1e12), alpha=0.0)
        seq = toks(300, 71)
        s = cache.begin(seq, 0.0)
        s.commit(np.concatenate([seq, toks(20, 72)]), 0.5)
        path = tmp_path / "t.npz"
        save_cache(cache, path)
        warm = load_cache(model, int(1e12), path)
        assert warm.used_bytes == cache.used_bytes


class TestGuards:
    def test_refuses_inflight_requests(self, hybrid, tmp_path):
        cache = MarconiCache(hybrid, int(1e12), alpha=0.0)
        seq = toks(100, 81)
        s = cache.begin(seq, 0.0)
        with pytest.raises(ValueError, match="in-flight"):
            save_cache(cache, tmp_path / "x.npz")
        s.commit(np.concatenate([seq, [1]]).astype(np.int32), 0.5)
        save_cache(cache, tmp_path / "x.npz")  # fine once closed

    def test_model_mismatch_rejected(self, hybrid, tmp_path):
        cache = _warm_cache(hybrid, n=2)
        path = tmp_path / "m.npz"
        save_cache(cache, path)
        with pytest.raises(ValueError, match="model"):
            load_cache(transformer_7b(), int(1e12), path)

    def test_shrinking_load_evicts_to_fit(self, hybrid, tmp_path):
        cache = _warm_cache(hybrid, n=8)
        path = tmp_path / "s.npz"
        save_cache(cache, path)
        small = cache.used_bytes // 2
        warm = load_cache(hybrid, small, path, alpha=0.0)
        assert warm.used_bytes <= small
        assert warm.used_bytes == warm.recompute_used_bytes()
        warm.tree.check_integrity()


def _as_meta(obj) -> np.ndarray:
    return np.frombuffer(json.dumps(obj).encode(), dtype=np.uint8)


def _edit_meta(edit):
    def apply(arrays):
        meta = json.loads(bytes(arrays["meta"]).decode())
        edit(meta)
        arrays["meta"] = _as_meta(meta)

    return apply


def _set(name, make):
    def apply(arrays):
        arrays[name] = make(arrays[name])

    return apply


def _parent_of_last(value):
    def make(parent):
        parent = parent.copy()
        parent[-1] = value
        return parent

    return make


def _first_edge_longer(lengths):
    lengths = lengths.copy()
    lengths[0] += 7
    return lengths


def _twin_siblings(arrays):
    """Re-hang the last node under the root with another root child's edge."""
    roots = np.flatnonzero(arrays["parent"] == -1)
    arrays["parent"] = _parent_of_last(-1)(arrays["parent"])
    lengths = arrays["edge_lengths"]
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    twin = arrays["edge_tokens"][offsets[roots[0]] : offsets[roots[0] + 1]]
    arrays["edge_tokens"] = np.concatenate(
        [arrays["edge_tokens"][: offsets[-2]], twin]
    )
    arrays["edge_lengths"] = np.concatenate([lengths[:-1], [len(twin)]])


CORRUPTIONS = {
    # The first two load "successfully" without the check: a different tree
    # that passes check_integrity, and a silently truncated edge.
    "parent-minus-two": _set("parent", _parent_of_last(-2)),
    "edge-lengths-overrun-tokens": _set("edge_lengths", _first_edge_longer),
    "missing-column": lambda arrays: arrays.pop("hit_count"),
    "short-column": _set("last_access", lambda column: column[:-1]),
    "parent-minus-five": _set("parent", _parent_of_last(-5)),
    "parent-after-child": _set("parent", _parent_of_last(10**6)),
    "zero-length-edge": _set("edge_lengths", lambda lengths: lengths * 0),
    "float-parent": _set("parent", lambda parent: parent.astype(np.float64)),
    "meta-not-json": _set("meta", lambda meta: np.full(8, 0xFF, dtype=np.uint8)),
    "meta-not-an-object": _set("meta", lambda meta: _as_meta([1, 2, 3])),
    "meta-without-model-name": _edit_meta(lambda meta: meta.pop("model_name")),
    "meta-wrong-node-count": _edit_meta(lambda meta: meta.update(n_nodes=3)),
    "twin-siblings": _twin_siblings,
}


class TestCorruptSnapshots:
    """A snapshot is outside input: whatever is wrong with it is one typed
    error up front, never a bare KeyError / IndexError, never another tree."""

    @pytest.mark.parametrize("case", CORRUPTIONS)
    def test_corrupt_snapshot_is_a_typed_error(self, case, hybrid, tmp_path):
        good = tmp_path / "good.npz"
        save_cache(_warm_cache(hybrid, n=4), good)
        with np.load(good) as data:
            arrays = {name: data[name] for name in data.files}
        CORRUPTIONS[case](arrays)
        bad = tmp_path / "bad.npz"
        np.savez_compressed(bad, **arrays)
        with pytest.raises(ValueError, match="corrupt snapshot"):
            load_cache(hybrid, int(1e12), bad)
        load_cache(hybrid, int(1e12), good)  # the unedited file still loads
