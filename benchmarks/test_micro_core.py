"""Micro-benchmarks: radix-tree and cache operation throughput.

These are genuine repeated-timing benchmarks (unlike the figure benches,
which run deterministic simulations once): they track the cost of the hot
operations a serving engine would sit on.
"""

import os
import time
import tracemalloc

import numpy as np
import pytest

from repro.core.cache import MarconiCache
from repro.core.eviction import FlopAwareEviction
from repro.core.eviction_index import EvictionIndex
from repro.core.interfaces import replay_log
from repro.core.node import is_lent
from repro.core.radix_tree import RadixTree
from repro.core.tokens import TokenSeq
from repro.models.config import LayerType
from repro.models.flops import flop_breakdown, model_prefill_flops
from repro.models.presets import hybrid_7b
from repro.workloads import sessions
from repro.workloads.registry import generate_trace
from repro.workloads.sessions import WorkloadParams
from repro.workloads.vocab import fresh_tokens

# The match depth floor: the match of round MATCH_DEPTHS[1] of one session
# buffer against its round MATCH_DEPTHS[0], each in a tree holding the
# session's earlier rounds.  A root walk memcmps every earlier round's edge,
# O(session depth): 6.6x (5.3 / 35 us).  A handle's walk resumes at its
# buffer's anchor, the node its last round reached: 1.0x (~1 / ~1 us).
MATCH_DEPTHS = (8, 64)
MATCH_ROUND_TOKENS = 200
MATCH_CALLS = 2000
MATCH_ROUNDS = 7
MATCH_GROWTH_BOUND = 2.0

# The one-copy floor: a materialized swebench trace of ONE_COPY_SESSIONS
# sessions, with every round interned, retains at most ONE_COPY_BOUND times
# its token bytes.  Each session's rounds are views of its one buffer; the
# rest is the rounds', handles' and sessions' own objects.  Rounds kept
# beside a buffer built on first use read ~2x.
ONE_COPY_SESSIONS = 600
ONE_COPY_BOUND = 1.15

# The lent-edge floor: replaying the nominal log of the one-copy floor's
# trace through a cache that never evicts retains at most LEND_BOUND times
# the trace's token bytes beyond the trace itself.  A new edge of a session
# handle is a view of the session's buffer, and only a merge owns bytes:
# ~0.35x, the tree's nodes and views.  A leaf copying its suffix out of the
# buffer, with the log's rounds as arrays re-interned per request: ~1.0x.
LEND_BOUND = 0.5

# The victim-selection floor: FlopAwareEviction.select_from_index over an
# index of SELECT_CANDIDATES candidates, each of whose two scored rows
# holds SELECT_TIED_VALUES values shared by SELECT_TIE_SIZE candidates
# (cache_contended's shape: a median of ~450 candidates, ties in nearly
# every row).  Tie runs read off one sort per row cost ~0.6x the two
# searchsorted calls per row that found them before (the reference below).
SELECT_CANDIDATES = 450
SELECT_TIED_VALUES = 10
SELECT_TIE_SIZE = 20
SELECT_CALLS = 1000
SELECT_ROUNDS = 7
SELECT_SPEEDUP_BOUND = 0.8

# The FLOP-pricing floor: PRICE_LENGTHS lengths a fresh config has never
# priced (a long-context trace's lengths are mostly new), read through
# model_prefill_flops, against adding flop_breakdown's three terms for each
# (the definition, the reference below).  The config's table evaluates the
# closed forms inline on a miss: ~0.25x.  The id-keyed memo it replaced, which
# looked the config up per call and summed a list of formula calls, ~0.52x.
PRICE_LENGTHS = 4000
PRICE_FIRST_LENGTH = 10_000
PRICE_ROUNDS = 9
PRICE_SPEEDUP_BOUND = 0.35

# The trace-generation floor: generating a GEN_SESSIONS-session sharegpt
# trace, against Generator.integers drawing the same segment lengths in the
# same order on a fresh generator (the draws no generator can skip), as the
# median over GEN_ROUNDS alternating pairs of their time ratio.  A pair runs
# back to back, so a busy host slows both sides: on a busy 2-core host the
# ratio of each side's fastest run swung 1.6-1.95x for the same code, the
# pair median 1.6-1.85x.  Each token written once, by one join per session,
# with templates drawn from a CDF computed once: ~1.75x.  Concatenating
# round 0, then the session, then copying the result into its handle, with
# a Generator.choice(p=) per template draw: 2.05-2.25x.
GEN_SESSIONS = 400
GEN_SEED = 11
GEN_ROUNDS = 21
GEN_COST_BOUND = 1.95


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


def _session_trees() -> dict:
    """One session buffer and, per depth, a tree holding the rounds before
    it (committed through the buffer's handles, so the buffer's anchor
    there is the last round's node) and the round's own handle."""
    rng = np.random.default_rng(3)
    rounds = MATCH_DEPTHS[-1] + 1
    buffer = TokenSeq(rng.integers(0, 32000, MATCH_ROUND_TOKENS * rounds, dtype=np.int32))
    trees = {}
    for depth in MATCH_DEPTHS:
        tree = RadixTree()
        for turn in range(1, depth):
            tree.insert(buffer.prefix(turn * MATCH_ROUND_TOKENS), float(turn))
        trees[depth] = (tree, buffer.prefix(depth * MATCH_ROUND_TOKENS))
    return trees


def _match_us(tree: RadixTree, query) -> float:
    match = tree.match
    start = time.perf_counter()
    for _ in range(MATCH_CALLS):
        match(query)
    return 1e6 * (time.perf_counter() - start) / MATCH_CALLS


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="perf floor gated on >= 2 cores (matches the CI perf lane)",
)
def test_match_cost_flat_in_session_depth():
    """A session's next round starts where its last one ended: the match of
    a round 8x deeper costs at most 2x.  The root walk of the same query
    (a plain array carries no anchor) is printed, not asserted."""
    trees = _session_trees()
    anchored = {depth: [] for depth in MATCH_DEPTHS}
    root = {depth: [] for depth in MATCH_DEPTHS}
    for _ in range(MATCH_ROUNDS):
        for depth, (tree, handle) in trees.items():
            assert tree.match(handle).matched_len == (depth - 1) * MATCH_ROUND_TOKENS
            anchored[depth].append(_match_us(tree, handle))
            root[depth].append(_match_us(tree, np.asarray(handle)))
    shallow, deep = (min(anchored[d]) for d in MATCH_DEPTHS)
    root_shallow, root_deep = (min(root[d]) for d in MATCH_DEPTHS)
    print(
        f"\nmatch: {shallow:.2f} us at round {MATCH_DEPTHS[0]}, {deep:.2f} us at "
        f"round {MATCH_DEPTHS[1]} ({deep / shallow:.2f}x); root walk {root_shallow:.2f} "
        f"/ {root_deep:.2f} us ({root_deep / root_shallow:.2f}x)"
    )
    assert deep <= MATCH_GROWTH_BOUND * shallow, (
        f"a round's match grew {deep / shallow:.1f}x from round {MATCH_DEPTHS[0]} "
        f"to round {MATCH_DEPTHS[1]} of its session"
    )


def test_trace_holds_one_copy():
    """A trace session holds its tokens once: every round interned, the
    trace retains about its token bytes, not the rounds plus a buffer."""
    tracemalloc.start()
    try:
        trace = generate_trace("swebench", n_sessions=ONE_COPY_SESSIONS, seed=11)
        for session in trace.sessions:
            for k in range(session.n_rounds):
                session.interned_round(k)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    token_bytes = 4 * sum(
        len(r.new_input_tokens) + len(r.output_tokens)
        for session in trace.sessions
        for r in session.rounds
    )
    ratio = retained / token_bytes
    print(
        f"\ntrace: {trace.n_requests} rounds, {token_bytes / 1e6:.1f} MB of tokens, "
        f"{retained / 1e6:.1f} MB retained ({ratio:.2f}x)"
    )
    assert ratio <= ONE_COPY_BOUND, (
        f"the trace retains {ratio:.2f}x its token bytes (floor {ONE_COPY_BOUND}x)"
    )


def test_replay_lends_session_tokens():
    """A replay of a trace's nominal log stores its edges as views of the
    session buffers the trace already holds, not as second copies."""
    trace = generate_trace("swebench", n_sessions=ONE_COPY_SESSIONS, seed=11)
    log = trace.nominal_log()
    token_bytes = 4 * sum(len(s.interned_round(s.n_rounds - 1)[1]) for s in trace.sessions)
    tracemalloc.start()
    try:
        cache = MarconiCache(hybrid_7b(), int(1e15), alpha=1.0)
        replay_log(cache, log)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    owned = sum(
        n.edge_tokens.nbytes for n in cache.tree.iter_nodes() if not is_lent(n.edge_tokens)
    )
    assert cache.stats.evictions == 0
    ratio = retained / token_bytes
    print(
        f"\nreplay: {len(log) // 2} requests over {token_bytes / 1e6:.1f} MB of tokens, "
        f"{retained / 1e6:.1f} MB retained ({ratio:.2f}x), {owned / 1e6:.2f} MB of owned edges"
    )
    assert ratio <= LEND_BOUND, (
        f"the replay retains {ratio:.2f}x the trace's token bytes (floor {LEND_BOUND}x)"
    )


def _drawn_lengths(params: WorkloadParams) -> list[int]:
    """The length of every token segment the session generator draws, in
    draw order (templates come from the pool, drawn once per trace)."""
    lengths: list[int] = []

    def recording(rng, n, vocab_size):
        lengths.append(n)
        return fresh_tokens(rng, n, vocab_size)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sessions, "fresh_tokens", recording)
        generate_trace("sharegpt", params)
    return lengths


def _generate_s(params: WorkloadParams) -> float:
    start = time.perf_counter()
    generate_trace("sharegpt", params)
    return time.perf_counter() - start


def _draw_s(lengths: list[int], vocab_size: int) -> float:
    rng = np.random.default_rng(GEN_SEED)
    start = time.perf_counter()
    for n in lengths:
        rng.integers(0, vocab_size, size=n, dtype=np.int32)
    return time.perf_counter() - start


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="perf floor gated on >= 2 cores (matches the CI perf lane)",
)
def test_generation_costs_its_draws():
    """Generating a trace costs at most 1.95x drawing its tokens: every
    token is written once, by its session's one join."""
    params = WorkloadParams(n_sessions=GEN_SESSIONS, seed=GEN_SEED)
    lengths = _drawn_lengths(params)
    generated, drawn = [], []
    for _ in range(GEN_ROUNDS):
        generated.append(_generate_s(params))
        drawn.append(_draw_s(lengths, params.vocab_size))
    ratio = float(np.median(np.divide(generated, drawn)))
    print(
        f"\ngeneration of {GEN_SESSIONS} sharegpt sessions: {min(generated) * 1e3:.1f} ms, "
        f"its {len(lengths)} draws {min(drawn) * 1e3:.1f} ms (fastest of each); "
        f"median pair {ratio:.2f}x"
    )
    assert ratio <= GEN_COST_BOUND, (
        f"generating the trace took {ratio:.2f}x its draws (floor {GEN_COST_BOUND}x)"
    )


def _tied_row(rng) -> np.ndarray:
    """SELECT_CANDIDATES values: SELECT_TIED_VALUES of them shared by
    SELECT_TIE_SIZE candidates each, the rest distinct, shuffled."""
    tied = np.repeat(rng.random(SELECT_TIED_VALUES), SELECT_TIE_SIZE)
    distinct = rng.random(SELECT_CANDIDATES - len(tied)) + 1.0
    return rng.permutation(np.concatenate([tied, distinct]))


def _ranked_index() -> EvictionIndex:
    """An index of SELECT_CANDIDATES leaves, its rank columns maintained."""
    rng = np.random.default_rng(5)
    recency, efficiency = _tied_row(rng), _tied_row(rng)
    tree = RadixTree()
    price = {}
    for i in range(SELECT_CANDIDATES):
        leaf = tree.insert(np.array([i + 1, 0], dtype=np.int32), float(recency[i]))
        price[leaf.end_node.node_id] = float(efficiency[i])
    index = EvictionIndex(tree, lambda node: 1, lambda node, _: price[node.node_id])
    index.normalized_ranks()
    assert len(index) == SELECT_CANDIDATES
    return index


def _searched_select(policy: FlopAwareEviction, index: EvictionIndex):
    """``select_from_index`` with each row's tie groups found by searching
    the sorted row for itself, left and right: the reference."""
    len(index)
    columns = index._ranks
    candidates, n = columns.candidates, len(columns.candidates)
    ranks = np.empty((2, n))
    for row in (0, 1):
        values = columns.v[row, :n]
        order = values.argsort()
        ordered = values[order]
        lo = ordered.searchsorted(ordered, "left")
        hi = ordered.searchsorted(ordered, "right")
        ranks[row, order] = ((lo + hi - 1) / 2.0 + 1.0) / n
    scores = ranks[0] + policy.alpha * ranks[1]
    lowest = np.flatnonzero(scores == scores.min())
    if len(lowest) == 1:
        return candidates[lowest[0]]
    return min((candidates[slot] for slot in lowest), key=lambda c: c.sort_key)


def _select_us(select, policy, index) -> float:
    start = time.perf_counter()
    for _ in range(SELECT_CALLS):
        select(policy, index)
    return 1e6 * (time.perf_counter() - start) / SELECT_CALLS


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="perf floor gated on >= 2 cores (matches the CI perf lane)",
)
def test_victim_selection_runs_no_searches():
    """A FLOP-aware selection over ~450 tied candidates ranks both rows
    with one sort each and no search: at most 0.8x the searched form."""
    index = _ranked_index()
    policy = FlopAwareEviction(alpha=1.0)
    shipped = FlopAwareEviction.select_from_index
    assert shipped(policy, index) is _searched_select(policy, index)
    times = {shipped: [], _searched_select: []}
    for _ in range(SELECT_ROUNDS):
        for select, samples in times.items():
            samples.append(_select_us(select, policy, index))
    ours, searched = (min(samples) for samples in times.values())
    print(
        f"\nvictim selection over {SELECT_CANDIDATES} candidates: {ours:.1f} us, "
        f"searched reference {searched:.1f} us ({ours / searched:.2f}x)"
    )
    assert ours <= SELECT_SPEEDUP_BOUND * searched, (
        f"victim selection took {ours / searched:.2f}x the searched reference "
        f"(floor {SELECT_SPEEDUP_BOUND}x)"
    )


def _breakdown_flops(config, seq_len: int) -> float:
    """The three ``flop_breakdown`` terms added left to right in
    ``LayerType`` order, as the table adds them (not ``sum``, which from
    CPython 3.12 on compensates rounding and may differ in the last bit)."""
    breakdown = flop_breakdown(config, seq_len)
    attention, ssm, mlp = (breakdown[layer] for layer in LayerType)
    return attention + ssm + mlp


def _price_us(price) -> float:
    """Microseconds per length to price PRICE_LENGTHS new lengths with
    ``price`` on a fresh config."""
    config = hybrid_7b()
    lengths = range(PRICE_FIRST_LENGTH, PRICE_FIRST_LENGTH + PRICE_LENGTHS)
    start = time.perf_counter()
    for seq_len in lengths:
        price(config, seq_len)
    return 1e6 * (time.perf_counter() - start) / PRICE_LENGTHS


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="perf floor gated on >= 2 cores (matches the CI perf lane)",
)
def test_flop_pricing_is_a_table_read():
    """Pricing a new length is one miss of the config's FLOP table: at most
    0.35x adding flop_breakdown's terms, the definition it equals bit for
    bit (asserted first)."""
    config = hybrid_7b()
    for seq_len in range(PRICE_FIRST_LENGTH, PRICE_FIRST_LENGTH + PRICE_LENGTHS):
        assert model_prefill_flops(config, seq_len) == _breakdown_flops(config, seq_len)
    times = {model_prefill_flops: [], _breakdown_flops: []}
    for _ in range(PRICE_ROUNDS):
        for price, samples in times.items():
            samples.append(_price_us(price))
    ours, reference = (min(samples) for samples in times.values())
    print(
        f"\nFLOP pricing of {PRICE_LENGTHS} new lengths: {ours:.2f} us each, "
        f"flop_breakdown reference {reference:.2f} us ({ours / reference:.2f}x)"
    )
    assert ours <= PRICE_SPEEDUP_BOUND * reference, (
        f"pricing a new length took {ours / reference:.2f}x the flop_breakdown "
        f"reference (floor {PRICE_SPEEDUP_BOUND}x)"
    )
