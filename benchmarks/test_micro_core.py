"""Micro-benchmarks: radix-tree and cache operation throughput.

These are genuine repeated-timing benchmarks (unlike the figure benches,
which run deterministic simulations once): they track the cost of the hot
operations a serving engine would sit on.
"""

import numpy as np
import pytest

from repro.core.cache import MarconiCache
from repro.core.radix_tree import RadixTree
from repro.models.presets import hybrid_7b


@pytest.fixture(scope="module")
def populated_tree():
    tree = RadixTree()
    rng = np.random.default_rng(0)
    shared = rng.integers(0, 32000, 2048, dtype=np.int32)
    sequences = []
    for i in range(200):
        cut = int(rng.integers(64, 2048))
        seq = np.concatenate(
            [shared[:cut], rng.integers(0, 32000, 512, dtype=np.int32)]
        )
        sequences.append(seq)
        tree.insert(seq, now=float(i))
    return tree, sequences


def test_micro_radix_match(benchmark, populated_tree):
    tree, sequences = populated_tree
    probe = sequences[137]

    result = benchmark(tree.match, probe)
    assert result.matched_len == len(probe)


def test_micro_radix_insert(benchmark):
    rng = np.random.default_rng(1)
    shared = rng.integers(0, 32000, 1024, dtype=np.int32)

    def insert_batch():
        tree = RadixTree()
        for i in range(50):
            seq = np.concatenate(
                [shared[: 64 + 16 * i], rng.integers(0, 32000, 256, dtype=np.int32)]
            )
            tree.insert(seq, now=float(i))
        return tree

    tree = benchmark(insert_batch)
    assert tree.n_nodes > 0


def test_micro_cache_lookup_admit(benchmark):
    model = hybrid_7b()
    rng = np.random.default_rng(2)
    context = rng.integers(0, 32000, 4096, dtype=np.int32)

    def serve_round():
        cache = MarconiCache(model, int(50e9), alpha=1.0)
        clock = 0.0
        ctx = context[:512]
        for _ in range(8):
            clock += 1.0
            s = cache.begin(ctx, clock)
            full = np.concatenate([ctx, rng.integers(0, 32000, 128, dtype=np.int32)])
            s.commit(full, clock + 0.5)
            ctx = np.concatenate([full, rng.integers(0, 32000, 64, dtype=np.int32)])
        return cache

    cache = benchmark(serve_round)
    assert cache.stats.hits > 0
