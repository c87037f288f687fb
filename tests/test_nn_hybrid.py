"""Tests for the assembled hybrid model and its checkpointing prefill."""

import numpy as np
import pytest

from repro.models.config import LayerType, ModelConfig
from repro.models.presets import tiny_test_model
from repro.nn.hybrid import HybridModel, layer_sequence
from repro.nn.states import KVState, RecurrentState


def states_close(a, b, rtol=1e-9, atol=1e-12) -> bool:
    for sa, sb in zip(a.layers, b.layers):
        if sa is None and sb is None:
            continue
        if isinstance(sa, KVState):
            if not (np.allclose(sa.k, sb.k, rtol=rtol, atol=atol)
                    and np.allclose(sa.v, sb.v, rtol=rtol, atol=atol)):
                return False
        elif isinstance(sa, RecurrentState):
            if not (np.allclose(sa.ssm, sb.ssm, rtol=rtol, atol=atol)
                    and np.allclose(sa.conv, sb.conv, rtol=rtol, atol=atol)):
                return False
    return a.seq_len == b.seq_len


class TestLayerSequence:
    def test_counts_exact(self, tiny, hybrid):
        for config in (tiny, hybrid):
            seq = layer_sequence(config)
            assert seq.count(LayerType.ATTENTION) == config.n_attention
            assert seq.count(LayerType.SSM) == config.n_ssm
            assert seq.count(LayerType.MLP) == config.n_mlp

    def test_attention_spread_out(self, hybrid):
        """Attention layers are interleaved, not clumped at one end."""
        seq = [t for t in layer_sequence(hybrid) if t is not LayerType.MLP]
        positions = [i for i, t in enumerate(seq) if t is LayerType.ATTENTION]
        gaps = np.diff(positions)
        assert len(positions) == 4
        assert all(g >= 3 for g in gaps)

    def test_pure_models(self):
        mamba_like = ModelConfig("m", 32, 8, 0, 4, 0, n_heads=4)
        assert set(layer_sequence(mamba_like)) == {LayerType.SSM}
        transformer_like = ModelConfig("t", 32, 0, 3, 0, 3, n_heads=4)
        counted = layer_sequence(transformer_like)
        assert counted.count(LayerType.ATTENTION) == 3


class TestForward:
    def test_logit_shapes(self, tiny, tokens):
        model = HybridModel(tiny, seed=0)
        toks = tokens(10, seed=1) % tiny.vocab_size
        logits, state = model.forward(toks, model.init_state())
        assert logits.shape == (10, tiny.vocab_size)
        assert state.seq_len == 10

    def test_incremental_equals_full(self, tiny, tokens):
        """Full forward == forward in two segments (all layer types)."""
        model = HybridModel(tiny, seed=0)
        toks = tokens(24, seed=2) % tiny.vocab_size
        full_logits, full_state = model.forward(toks, model.init_state())
        l1, s1 = model.forward(toks[:11], model.init_state())
        l2, s2 = model.forward(toks[11:], s1)
        assert np.allclose(full_logits, np.concatenate([l1, l2]), rtol=1e-9, atol=1e-12)
        assert states_close(full_state, s2)

    def test_kv_state_only_for_attention_layers(self, tiny, tokens):
        model = HybridModel(tiny, seed=0)
        _, state = model.forward(tokens(6, seed=3) % tiny.vocab_size, model.init_state())
        for index, layer in enumerate(layer_sequence(tiny)):
            kv = state.kv_state(index)
            if layer == LayerType.ATTENTION:
                assert isinstance(kv, KVState) and kv.seq_len == 6
            else:
                assert kv is None

    def test_rejects_empty(self, tiny):
        model = HybridModel(tiny, seed=0)
        with pytest.raises(ValueError):
            model.forward(np.asarray([], dtype=np.int32), model.init_state())

    def test_deterministic_in_seed(self, tiny, tokens):
        toks = tokens(8, seed=3) % tiny.vocab_size
        a, _ = HybridModel(tiny, seed=5).forward(toks, HybridModel(tiny, seed=5).init_state())
        m = HybridModel(tiny, seed=5)
        b, _ = m.forward(toks, m.init_state())
        assert np.allclose(a, b)


class TestCheckpointingPrefill:
    def test_exact_checkpoints_match_prefix_states(self, tiny, tokens):
        model = HybridModel(tiny, seed=0)
        toks = tokens(50, seed=4) % tiny.vocab_size
        result = model.prefill(toks, checkpoint_positions=(20, 35), mode="exact")
        assert set(result.checkpoints) == {20, 35}
        for pos, checkpoint in result.checkpoints.items():
            reference = model.prefill(toks[:pos])
            assert states_close(checkpoint, reference.state)

    def test_exact_split_does_not_change_logits(self, tiny, tokens):
        model = HybridModel(tiny, seed=0)
        toks = tokens(40, seed=5) % tiny.vocab_size
        plain = model.prefill(toks)
        split = model.prefill(toks, checkpoint_positions=(13, 27), mode="exact")
        assert np.allclose(plain.logits, split.logits, rtol=1e-9, atol=1e-12)

    def test_chunked_snaps_to_boundaries(self, tiny, tokens):
        """Chunked state passing checkpoints at the chunk boundary at or
        before the requested position (section 4.1's example: want 80,
        chunk 32 -> checkpoint at 64)."""
        model = HybridModel(tiny, seed=0)
        toks = tokens(100, seed=6) % tiny.vocab_size
        result = model.prefill(toks, checkpoint_positions=(80,), mode="chunked", chunk_size=32)
        assert set(result.checkpoints) == {64}
        reference = model.prefill(toks[:64])
        assert states_close(result.checkpoints[64], reference.state)

    def test_chunked_already_aligned(self, tiny, tokens):
        model = HybridModel(tiny, seed=0)
        toks = tokens(100, seed=7) % tiny.vocab_size
        result = model.prefill(toks, checkpoint_positions=(64,), mode="chunked", chunk_size=32)
        assert set(result.checkpoints) == {64}

    def test_rollforward_lands_on_exact_positions(self, tiny, tokens):
        """Chunk-snapped states rolled forward match the exact-mode states
        at the requested (unaligned) positions."""
        model = HybridModel(tiny, seed=0)
        toks = tokens(100, seed=61) % tiny.vocab_size
        rolled = model.prefill(
            toks, checkpoint_positions=(23, 80), mode="chunked_rollforward", chunk_size=32
        )
        assert set(rolled.checkpoints) == {23, 80}
        for pos in (23, 80):
            reference = model.prefill(toks[:pos])
            assert states_close(rolled.checkpoints[pos], reference.state)

    def test_rollforward_matches_chunked_on_aligned_positions(self, tiny, tokens):
        model = HybridModel(tiny, seed=0)
        toks = tokens(96, seed=62) % tiny.vocab_size
        rolled = model.prefill(
            toks, checkpoint_positions=(64,), mode="chunked_rollforward", chunk_size=32
        )
        chunked = model.prefill(
            toks, checkpoint_positions=(64,), mode="chunked", chunk_size=32
        )
        assert set(rolled.checkpoints) == set(chunked.checkpoints) == {64}
        assert states_close(rolled.checkpoints[64], chunked.checkpoints[64])

    def test_rollforward_within_first_chunk(self, tiny, tokens):
        """A position before the first boundary rolls forward from the
        initial state."""
        model = HybridModel(tiny, seed=0)
        toks = tokens(50, seed=63) % tiny.vocab_size
        rolled = model.prefill(
            toks, checkpoint_positions=(5,), mode="chunked_rollforward", chunk_size=32
        )
        reference = model.prefill(toks[:5])
        assert states_close(rolled.checkpoints[5], reference.state)

    def test_rollforward_at_segment_end(self, tiny, tokens):
        model = HybridModel(tiny, seed=0)
        toks = tokens(40, seed=64) % tiny.vocab_size
        rolled = model.prefill(
            toks, checkpoint_positions=(40,), mode="chunked_rollforward", chunk_size=32
        )
        assert states_close(rolled.checkpoints[40], rolled.state)

    def test_rollforward_logits_unchanged(self, tiny, tokens):
        model = HybridModel(tiny, seed=0)
        toks = tokens(70, seed=65) % tiny.vocab_size
        plain = model.prefill(toks)
        rolled = model.prefill(
            toks, checkpoint_positions=(17, 41), mode="chunked_rollforward", chunk_size=16
        )
        assert np.allclose(plain.logits, rolled.logits, rtol=1e-9, atol=1e-12)

    def test_rollforward_resume_is_exact(self, tiny, tokens):
        """Serving from a rolled-forward checkpoint reproduces the full
        prefill bit-for-bit — the same premise as exact mode."""
        model = HybridModel(tiny, seed=0)
        toks = tokens(60, seed=66) % tiny.vocab_size
        full = model.prefill(toks)
        ck = model.prefill(
            toks, checkpoint_positions=(37,), mode="chunked_rollforward", chunk_size=16
        ).checkpoints[37]
        resumed = model.prefill(toks[37:], ck)
        assert np.allclose(resumed.logits, full.logits[37:], rtol=1e-9, atol=1e-12)
        assert states_close(resumed.state, full.state)

    def test_two_pass_equals_exact(self, tiny, tokens):
        model = HybridModel(tiny, seed=0)
        toks = tokens(60, seed=8) % tiny.vocab_size
        exact = model.prefill(toks, checkpoint_positions=(25,), mode="exact")
        two_pass = model.prefill(toks, checkpoint_positions=(25,), mode="two_pass")
        assert np.allclose(exact.logits, two_pass.logits)
        assert states_close(exact.checkpoints[25], two_pass.checkpoints[25])

    def test_resume_from_checkpoint_exact(self, tiny, tokens):
        """The paper's premise: serving from a checkpoint is exact."""
        model = HybridModel(tiny, seed=0)
        toks = tokens(60, seed=9) % tiny.vocab_size
        full = model.prefill(toks)
        ck = model.prefill(toks, checkpoint_positions=(30,)).checkpoints[30]
        resumed = model.prefill(toks[30:], ck)
        assert np.allclose(resumed.logits, full.logits[30:], rtol=1e-9, atol=1e-12)
        assert states_close(resumed.state, full.state)

    def test_prefill_from_nonzero_state_positions_are_global(self, tiny, tokens):
        model = HybridModel(tiny, seed=0)
        toks = tokens(50, seed=10) % tiny.vocab_size
        first = model.prefill(toks[:20])
        second = model.prefill(toks[20:], first.state, checkpoint_positions=(35,))
        assert set(second.checkpoints) == {35}
        reference = model.prefill(toks[:35])
        assert states_close(second.checkpoints[35], reference.state)

    def test_checkpoint_position_validation(self, tiny, tokens):
        model = HybridModel(tiny, seed=0)
        toks = tokens(20, seed=11) % tiny.vocab_size
        with pytest.raises(ValueError, match="outside"):
            model.prefill(toks, checkpoint_positions=(25,))
        with pytest.raises(ValueError, match="outside"):
            model.prefill(toks, checkpoint_positions=(0,))
        with pytest.raises(ValueError, match="mode"):
            model.prefill(toks, mode="bogus")

    def test_checkpoint_at_end_is_final_state(self, tiny, tokens):
        model = HybridModel(tiny, seed=0)
        toks = tokens(30, seed=12) % tiny.vocab_size
        result = model.prefill(toks, checkpoint_positions=(30,))
        assert states_close(result.checkpoints[30], result.state)


class TestGeneration:
    def test_generate_is_deterministic(self, tiny, tokens):
        model = HybridModel(tiny, seed=0)
        prompt = tokens(15, seed=13) % tiny.vocab_size
        a, _ = model.generate(prompt, 6)
        b, _ = model.generate(prompt, 6)
        np.testing.assert_array_equal(a, b)

    def test_generate_matches_manual_decode(self, tiny, tokens):
        model = HybridModel(tiny, seed=0)
        prompt = tokens(10, seed=14) % tiny.vocab_size
        generated, _ = model.generate(prompt, 4)
        result = model.prefill(prompt)
        logits, state = result.logits[-1], result.state
        manual = []
        for _ in range(4):
            tok = int(np.argmax(logits))
            manual.append(tok)
            logits, state = model.decode_step(tok, state)
        np.testing.assert_array_equal(generated, manual)

    def test_generate_validation(self, tiny, tokens):
        model = HybridModel(tiny, seed=0)
        with pytest.raises(ValueError):
            model.generate(tokens(5, seed=15) % tiny.vocab_size, 0)
