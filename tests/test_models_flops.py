"""Tests for the Table 1 FLOP formulas and the per-config FLOP table."""

import copy
import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.config import LayerType
from repro.models.flops import (
    prefill_flops_table,
    attention_prefill_flops,
    flop_breakdown,
    layer_prefill_flops,
    mlp_prefill_flops,
    model_prefill_flops,
    model_suffix_prefill_flops,
    ssm_prefill_flops,
)
from repro.engine.latency import LatencyModel
from repro.models.memory import kv_bytes_per_token, model_recurrent_bytes
from repro.models.presets import PRESETS, hybrid_7b


def _left_to_right(breakdown):
    """The definition of a model's prefill FLOPs: the three per-family
    terms added left to right in ``LayerType`` order.  Not ``sum``: from
    CPython 3.12 on it compensates float rounding and can differ in the
    last bit."""
    attention, ssm, mlp = (breakdown[layer] for layer in LayerType)
    return attention + ssm + mlp


class TestClosedForms:
    def test_attention_formula(self):
        # 8 L D^2 + 4 L^2 D at L=100, D=64.
        assert attention_prefill_flops(100, 64) == 8 * 100 * 64**2 + 4 * 100**2 * 64

    def test_mlp_formula(self):
        assert mlp_prefill_flops(100, 64) == 16 * 100 * 64**2

    def test_ssm_formula(self):
        assert ssm_prefill_flops(100, 64, 16) == 12 * 100 * 64**2 + 16 * 100 * 64 * 16 + 10 * 100

    def test_zero_length_is_zero(self, hybrid):
        assert model_prefill_flops(hybrid, 0) == 0.0

    def test_layer_dispatch_matches_direct(self, hybrid):
        assert layer_prefill_flops(LayerType.ATTENTION, 50, hybrid) == attention_prefill_flops(50, hybrid.d_model)
        assert layer_prefill_flops(LayerType.SSM, 50, hybrid) == ssm_prefill_flops(50, hybrid.d_model, hybrid.d_state)
        assert layer_prefill_flops(LayerType.MLP, 50, hybrid) == mlp_prefill_flops(50, hybrid.d_model)


class TestModelAggregates:
    def test_breakdown_sums_to_total(self, hybrid):
        breakdown = flop_breakdown(hybrid, 1000)
        assert sum(breakdown.values()) == pytest.approx(model_prefill_flops(hybrid, 1000))

    def test_breakdown_rejects_negative(self, hybrid):
        with pytest.raises(ValueError):
            flop_breakdown(hybrid, -1)
        with pytest.raises(ValueError):
            model_prefill_flops(hybrid, -1)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @given(seq_len=st.integers(0, 2**24))
    @settings(max_examples=200, deadline=None)
    def test_memo_miss_is_bit_equal_to_the_breakdown(self, preset, seq_len):
        """The table's miss evaluates the closed forms inline; it must
        produce the very float the public definition sums to (golden
        transcripts carry these values)."""
        config = PRESETS[preset]()  # a fresh config: every length is a miss
        want = _left_to_right(flop_breakdown(config, seq_len))
        assert prefill_flops_table(config)[seq_len] == want
        assert model_prefill_flops(config, seq_len) == want  # and the hit
        assert model_prefill_flops(PRESETS[preset](), seq_len) == want

    def test_attention_share_grows_with_length(self, hybrid):
        """Fig. 14: the quadratic term makes attention dominate at long L."""
        shares = []
        for length in (1000, 10000, 30000):
            b = flop_breakdown(hybrid, length)
            shares.append(b[LayerType.ATTENTION] / sum(b.values()))
        assert shares[0] < shares[1] < shares[2]

    def test_flops_table_is_the_memo(self, hybrid):
        """Entries written by either path are visible to the other."""
        table = prefill_flops_table(hybrid)
        value = model_prefill_flops(hybrid, 1234)
        assert table[1234] == value
        table[98765] = -1.0  # a probe of the live dict, not a copy
        assert model_prefill_flops(hybrid, 98765) == -1.0
        del table[98765]
        assert model_prefill_flops(hybrid, 98765) == _left_to_right(
            flop_breakdown(hybrid, 98765)
        )

    def test_monotone_in_length(self, hybrid):
        values = [model_prefill_flops(hybrid, n) for n in (1, 10, 100, 1000)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_roughly_2x_params_per_token(self, hybrid):
        """A 7B model costs ~2 * 7e9 FLOPs per prefill token at short L."""
        per_token = model_prefill_flops(hybrid, 1000) / 1000
        assert 0.5e10 < per_token < 3e10


class TestPrefillFlopsTable:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_every_length_to_64k_is_the_breakdown(self, preset):
        lengths = range(65_537)
        config = PRESETS[preset]()
        want = [_left_to_right(flop_breakdown(config, n)) for n in lengths]
        table = prefill_flops_table(config)
        assert [table[n] for n in lengths] == want  # misses
        assert [table[n] for n in lengths] == want  # hits
        fresh = PRESETS[preset]()
        assert [model_prefill_flops(fresh, n) for n in lengths] == want

    def test_a_negative_length_raises_and_stores_nothing(self, hybrid):
        table = prefill_flops_table(hybrid)
        with pytest.raises(ValueError, match="non-negative"):
            table[-1]
        with pytest.raises(ValueError, match="non-negative"):
            model_prefill_flops(hybrid, -5)
        assert len(table) == 0

    def test_one_table_per_config_object(self, hybrid):
        assert prefill_flops_table(hybrid) is prefill_flops_table(hybrid)
        assert prefill_flops_table(hybrid) is not prefill_flops_table(hybrid_7b())

    def test_the_costs_die_with_their_config(self):
        """Nothing outside a config keeps it or its costs alive: its FLOP
        table and byte constants sit in its own instance dict."""
        configs = [hybrid_7b() for _ in range(100)]
        for i, config in enumerate(configs):
            model_prefill_flops(config, 1000 + i)
            kv_bytes_per_token(config)
            model_recurrent_bytes(config)
            assert {"_prefill_flops", "_kv_bytes_per_token", "_recurrent_bytes"} <= set(
                vars(config)
            )
        refs = [weakref.ref(c) for c in configs]
        refs += [weakref.ref(prefill_flops_table(c)) for c in configs]
        del configs, config
        gc.collect()
        assert [r for r in refs if r() is not None] == []

    def test_the_costs_are_no_part_of_the_config_value(self, hybrid):
        bare = hybrid_7b()
        model_prefill_flops(hybrid, 10)
        kv_bytes_per_token(hybrid)
        model_recurrent_bytes(hybrid)
        assert hybrid == bare and hash(hybrid) == hash(bare)
        assert repr(hybrid) == repr(bare)
        for clone in (pickle.loads(pickle.dumps(hybrid)), copy.deepcopy(hybrid)):
            assert clone == hybrid and vars(clone) == vars(bare)

    def test_batch_pricing_reads_the_table(self):
        """``prefill_seconds_batch`` subscripts the table itself: it keeps
        the range check and equals the scalar path float for float."""
        lm = LatencyModel()
        items = [
            (n, r, 4096 * r, (4096 * r) // 3)
            for n in (1, 777, 40_000)
            for r in (0, n // 2, n)
        ]
        batch = lm.prefill_seconds_batch(hybrid_7b(), items)
        scalar = hybrid_7b()
        assert batch == [lm.prefill_seconds(scalar, *item) for item in items]
        for bad in [(10, 20, 0, 0), (10, -1, 0, 0)]:
            with pytest.raises(ValueError, match="need 0 <= reused_len <= seq_len"):
                lm.prefill_seconds_batch(hybrid_7b(), [(100, 0, 0, 0), bad])
        with pytest.raises(ValueError, match="reused_bytes"):
            lm.prefill_seconds_batch(hybrid_7b(), [(100, 50, -1, 0)])


class TestSuffixFlops:
    def test_full_reuse_is_free(self, hybrid):
        assert model_suffix_prefill_flops(hybrid, 500, 500) == 0.0

    def test_no_reuse_is_full_prefill(self, hybrid):
        assert model_suffix_prefill_flops(hybrid, 500, 0) == model_prefill_flops(hybrid, 500)

    def test_additivity(self, hybrid):
        """prefill(0->a) + prefill(a->b) == prefill(0->b) for every layer type."""
        a, b = 300, 900
        combined = model_prefill_flops(hybrid, a) + model_suffix_prefill_flops(hybrid, b, a)
        assert combined == pytest.approx(model_prefill_flops(hybrid, b))

    def test_rejects_bad_range(self, hybrid):
        with pytest.raises(ValueError):
            model_suffix_prefill_flops(hybrid, 10, 20)

    def test_suffix_attention_quadratic_accounting(self, transformer):
        """Prefilling the second half of 2L costs more than prefilling L
        from scratch (the suffix attends to the full context)."""
        length = 1000
        suffix = model_suffix_prefill_flops(transformer, 2 * length, length)
        fresh = model_prefill_flops(transformer, length)
        assert suffix > fresh

