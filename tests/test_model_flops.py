"""Tests for FLOP accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.data.documents import DocumentBatch
from repro.model.config import LLAMA3_405B, LLAMA3_8B, MultimodalConfig, VIT_448, VIT_672
from repro.model.flops import (
    attention_score_flops,
    causal_mask_fraction,
    cross_attention_forward_flops,
    layer_backward_flops,
    layer_forward_flops,
    layer_linear_flops,
    model_forward_flops,
    model_params,
    model_step_flops,
    multimodal_layer_step_flops,
    output_head_flops,
    vision_forward_flops,
)


def _document_fraction(doc_lens):
    """Share of the score matrix a document mask computes, from the
    per-row attended counts CP sharding prices."""
    batch = DocumentBatch(sum(doc_lens), tuple(doc_lens))
    return int(batch.attended_per_row().sum()) / float(batch.seq ** 2)


class TestMaskFractions:
    def test_causal_approaches_half(self):
        assert causal_mask_fraction(1) == 1.0
        assert causal_mask_fraction(8192) == pytest.approx(0.5, abs=1e-3)

    def test_document_mask_less_than_causal(self):
        assert _document_fraction([1024] * 8) < causal_mask_fraction(8192)

    def test_single_document_equals_causal(self):
        assert _document_fraction([100]) == pytest.approx(
            causal_mask_fraction(100)
        )

    @given(st.lists(st.integers(min_value=1, max_value=512), min_size=1,
                    max_size=32))
    def test_document_fraction_bounded(self, lens):
        frac = _document_fraction(lens)
        seq = sum(lens)
        assert 0 < frac <= causal_mask_fraction(seq)

    def test_validation(self):
        with pytest.raises(ValueError):
            causal_mask_fraction(0)
        with pytest.raises(ValueError):
            _document_fraction([3, 0])


class TestLayerFlops:
    def test_forward_is_linear_plus_attention(self):
        total = layer_forward_flops(LLAMA3_8B, 4096)
        assert total == pytest.approx(
            layer_linear_flops(LLAMA3_8B, 4096)
            + attention_score_flops(LLAMA3_8B, 4096)
        )

    def test_attention_quadratic_in_seq(self):
        a1 = attention_score_flops(LLAMA3_8B, 1024)
        a2 = attention_score_flops(LLAMA3_8B, 2048)
        assert a2 / a1 == pytest.approx(4.0, rel=0.01)

    def test_backward_twice_forward_linear(self):
        fwd = layer_forward_flops(LLAMA3_8B, 2048)
        bwd = layer_backward_flops(LLAMA3_8B, 2048)
        assert 1.9 < bwd / fwd < 2.1

    def test_frozen_backward_cheaper(self):
        # Section 3.2.2: frozen layers skip weight gradients.
        full = layer_backward_flops(LLAMA3_8B, 2048, frozen=False)
        frozen = layer_backward_flops(LLAMA3_8B, 2048, frozen=True)
        assert frozen < full
        assert frozen == pytest.approx(
            layer_linear_flops(LLAMA3_8B, 2048)
            + 2 * attention_score_flops(LLAMA3_8B, 2048)
        )


class TestModelFlops:
    def test_6nd_rule_of_thumb(self):
        """One step over T tokens costs ~6 * params * T FLOPs plus the
        attention term."""
        tokens = 16 * 2**20
        flops = model_step_flops(LLAMA3_405B, tokens, seq=8192)
        lower = 6 * model_params(LLAMA3_405B) * tokens
        assert lower < flops < 1.25 * lower

    def test_recompute_adds_one_forward(self):
        tokens = 8192 * 4
        base = model_step_flops(LLAMA3_405B, tokens, seq=8192)
        rec = model_step_flops(LLAMA3_405B, tokens, seq=8192, recompute=True)
        fwd = 4 * model_forward_flops(LLAMA3_405B, 8192)
        assert rec - base == pytest.approx(fwd, rel=1e-6)

    def test_output_head_significant_with_128k_vocab(self):
        # Section 7.1.2 rationale: the head rivals a transformer layer.
        head = output_head_flops(LLAMA3_405B, 8192)
        layer = layer_forward_flops(LLAMA3_405B, 8192)
        assert head > 0.5 * layer


class TestMultimodalFlops:
    MM = MultimodalConfig(text=LLAMA3_8B, vision=VIT_448, self_per_cross=4)

    def test_cross_attention_dominates_self(self):
        # Section 3.2.2: image seq >> text seq makes cross layers heavy;
        # the gap widens with resolution.
        per_layer = multimodal_layer_step_flops(self.MM)
        assert per_layer["cross"] > 1.5 * per_layer["self"]
        mm672 = MultimodalConfig(text=LLAMA3_8B, vision=VIT_672,
                                 self_per_cross=4)
        per_layer_672 = multimodal_layer_step_flops(mm672)
        assert per_layer_672["cross"] > per_layer["cross"]
        assert per_layer_672["cross"] > 2 * per_layer_672["self"]

    def test_higher_resolution_costs_more(self):
        assert vision_forward_flops(VIT_672) > 2 * vision_forward_flops(
            VIT_448
        )

    def test_cross_flops_scale_with_image_seq(self):
        mm672 = MultimodalConfig(text=LLAMA3_8B, vision=VIT_672,
                                 self_per_cross=4)
        assert cross_attention_forward_flops(mm672) > \
            cross_attention_forward_flops(self.MM)
