"""Integration tests: the executable model served through the Marconi cache.

These validate the paper's correctness premise end to end: "prefix reusing
is exact and does not change the LLM output".
"""

import numpy as np
import pytest

from repro.models.presets import tiny_test_model
from repro.nn.hybrid import HybridModel
from repro.serving.engine import DecodeParams, ExactReuseServer


@pytest.fixture
def reference(tiny):
    return HybridModel(tiny, seed=0)


def expect(reference, prompt, n):
    out, _ = reference.generate(prompt, n)
    return out


class TestExactReuse:
    def test_conversation_rounds_bitwise_identical(self, tiny, reference, tokens):
        """Multi-round chat: each round reuses the previous round's state
        and still produces exactly the no-cache outputs."""
        server = ExactReuseServer(tiny, int(1e9), seed=0)
        context = tokens(30, seed=1) % tiny.vocab_size
        for round_index in range(3):
            served = server.serve(context, 5)
            np.testing.assert_array_equal(
                served.output_tokens, expect(reference, context, 5)
            )
            if round_index > 0:
                assert served.hit_tokens > 0
            context = np.concatenate(
                [served.full_sequence, tokens(10, seed=10 + round_index) % tiny.vocab_size]
            )

    def test_shared_prefix_branch_checkpoint_exact(self, tiny, reference, tokens):
        """Purely-input reuse: the third occurrence serves from the branch
        checkpoint materialized during the second's prefill — exactly."""
        server = ExactReuseServer(tiny, int(1e9), seed=0)
        shared = tokens(40, seed=2) % tiny.vocab_size
        queries = [
            np.concatenate([shared, tokens(12, seed=20 + i) % tiny.vocab_size])
            for i in range(3)
        ]
        hits = []
        for query in queries:
            served = server.serve(query, 4)
            hits.append(served.hit_tokens)
            np.testing.assert_array_equal(served.output_tokens, expect(reference, query, 4))
        assert hits[0] == 0 and hits[1] == 0 and hits[2] == len(shared)

    def test_chunked_mode_still_exact(self, tiny, reference, tokens):
        """Chunk-aligned checkpoints shift the reuse point but never the
        output."""
        server = ExactReuseServer(tiny, int(1e9), seed=0, prefill_mode="chunked", chunk_size=16)
        shared = tokens(40, seed=3) % tiny.vocab_size
        for i in range(3):
            query = np.concatenate([shared, tokens(10, seed=30 + i) % tiny.vocab_size])
            served = server.serve(query, 4)
            np.testing.assert_array_equal(served.output_tokens, expect(reference, query, 4))

    def test_rollforward_mode_exact_and_attaches_branch(self, tiny, reference, tokens):
        """chunked_rollforward lands checkpoints on the exact branch
        positions (the paper's optional roll-forward kernel), so unaligned
        purely-input prefixes become servable — with bitwise-exact outputs."""
        server = ExactReuseServer(
            tiny, int(1e9), seed=0, prefill_mode="chunked_rollforward", chunk_size=16
        )
        shared = tokens(40, seed=7) % tiny.vocab_size  # 40 is not chunk-aligned
        hits = []
        for i in range(3):
            query = np.concatenate([shared, tokens(10, seed=70 + i) % tiny.vocab_size])
            served = server.serve(query, 4)
            hits.append(served.hit_tokens)
            np.testing.assert_array_equal(served.output_tokens, expect(reference, query, 4))
        assert hits[2] == len(shared)

    def test_plain_chunked_misses_unaligned_branch(self, tiny, tokens):
        """Contrast case: without roll-forward, the snapped checkpoint
        cannot be attached at the unaligned branch position, so the third
        occurrence prefills in full (correctly, but without reuse)."""
        server = ExactReuseServer(
            tiny, int(1e9), seed=0, prefill_mode="chunked", chunk_size=16
        )
        shared = tokens(40, seed=8) % tiny.vocab_size
        hits = []
        for i in range(3):
            query = np.concatenate([shared, tokens(10, seed=80 + i) % tiny.vocab_size])
            hits.append(server.serve(query, 4).hit_tokens)
        assert hits[2] == 0

    def test_eviction_degrades_hits_not_correctness(self, tiny, reference, tokens):
        """Under a tiny cache, hits disappear but outputs stay exact."""
        server = ExactReuseServer(tiny, capacity_bytes=64 * 1024, seed=0)
        for i in range(5):
            query = tokens(25, seed=40 + i) % tiny.vocab_size
            served = server.serve(query, 3)
            np.testing.assert_array_equal(served.output_tokens, expect(reference, query, 3))
        server.cache.check_integrity()

    def test_prefilled_plus_hit_covers_input(self, tiny, tokens):
        server = ExactReuseServer(tiny, int(1e9), seed=0)
        context = tokens(20, seed=5) % tiny.vocab_size
        first = server.serve(context, 4)
        follow = np.concatenate([first.full_sequence, tokens(6, seed=6) % tiny.vocab_size])
        second = server.serve(follow, 4)
        assert second.hit_tokens + second.prefilled_tokens == len(follow)
        assert second.hit_tokens == len(first.full_sequence)


class TestServeEdgeCases:
    def test_empty_input_rejected_with_clear_error(self, tiny):
        server = ExactReuseServer(tiny, int(1e9), seed=0)
        with pytest.raises(ValueError, match="empty request"):
            server.serve(np.empty(0, dtype=np.int32), 4)
        with pytest.raises(ValueError, match="empty request"):
            server.serve([], 4)
        # Nothing was begun: the failed request leaves no session behind.
        assert server.cache.open_sessions == 0

    def test_negative_n_output_rejected(self, tiny, tokens):
        server = ExactReuseServer(tiny, int(1e9), seed=0)
        with pytest.raises(ValueError, match="n_output"):
            server.serve(tokens(10, seed=1) % tiny.vocab_size, -1)
        assert server.cache.open_sessions == 0

    def test_n_output_zero_commits_input_only(self, tiny, tokens):
        """n_output=0 is prefill-and-commit: no tokens decoded, and the
        committed state is reusable by a longer follow-up."""
        server = ExactReuseServer(tiny, int(1e9), seed=0)
        context = tokens(24, seed=2) % tiny.vocab_size
        served = server.serve(context, 0)
        assert served.output_tokens.shape == (0,)
        assert served.output_tokens.dtype == np.int32
        np.testing.assert_array_equal(served.full_sequence, context)
        assert served.prefilled_tokens == len(context)

        follow = np.concatenate([context, tokens(8, seed=3) % tiny.vocab_size])
        second = server.serve(follow, 2)
        assert second.hit_tokens > 0
        assert server.cache.open_sessions == 0

    def test_serve_steps_closed_early_aborts_session(self, tiny, tokens):
        server = ExactReuseServer(tiny, int(1e9), seed=0)
        gen = server.serve_steps(tokens(20, seed=4) % tiny.vocab_size, 8)
        next(gen)  # prefill ran, session is open
        assert server.cache.open_sessions == 1
        gen.close()
        assert server.cache.open_sessions == 0
        server.cache.check_integrity()

    def test_seeded_sampling_reproducible_and_exact_under_reuse(
        self, tiny, reference, tokens
    ):
        """Seeded temperature sampling is reproducible across servers, and
        prefix reuse does not perturb the sampled outputs either."""
        params = DecodeParams(temperature=0.7, seed=99)
        prefix = tokens(20, seed=5) % tiny.vocab_size

        warm_server = ExactReuseServer(tiny, int(1e9), seed=0)
        first = warm_server.serve(prefix, 4)  # greedy pass populates the cache
        query = np.concatenate(
            [first.full_sequence, tokens(6, seed=55) % tiny.vocab_size]
        )
        cold = ExactReuseServer(tiny, int(1e9), seed=0).serve(query, 5, params=params)
        warm = warm_server.serve(query, 5, params=params)
        assert warm.hit_tokens == len(first.full_sequence)
        np.testing.assert_array_equal(warm.output_tokens, cold.output_tokens)

    def test_forced_outputs_override_selection_and_commit(self, tiny, tokens):
        """Teacher forcing: the served output is the forced sequence, the
        commit reflects it, and n_output is taken from its length."""
        server = ExactReuseServer(tiny, int(1e9), seed=0)
        query = tokens(18, seed=6) % tiny.vocab_size
        forced = tokens(5, seed=7) % tiny.vocab_size
        served = server.serve(query, 999, forced_outputs=forced)
        np.testing.assert_array_equal(served.output_tokens, forced)
        np.testing.assert_array_equal(
            served.full_sequence, np.concatenate([query, forced])
        )
        follow = np.concatenate([served.full_sequence, tokens(4, seed=8) % tiny.vocab_size])
        assert server.serve(follow, 1).hit_tokens == len(served.full_sequence)


class TestClockInjection:
    def test_injected_clock_stamps_cache_accesses(self, tiny, tokens):
        ticks = []

        def clock():
            ticks.append(len(ticks))
            return float(len(ticks))

        server = ExactReuseServer(tiny, int(1e9), seed=0, clock=clock)
        server.serve(tokens(12, seed=9) % tiny.vocab_size, 2)
        # begin() and commit() each stamp once per request.
        assert len(ticks) == 2
        server.serve(tokens(12, seed=10) % tiny.vocab_size, 2)
        assert len(ticks) == 4

    def test_default_clock_is_private_and_monotone(self, tiny, tokens):
        a = ExactReuseServer(tiny, int(1e9), seed=0)
        b = ExactReuseServer(tiny, int(1e9), seed=0)
        assert a.clock is not b.clock
        first, second = a.clock(), a.clock()
        assert second > first
