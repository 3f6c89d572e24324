"""Tests for model configurations."""

import pytest

from repro.model.config import (
    LLAMA3_405B,
    LLAMA3_405B_SCALED_26L,
    LLAMA3_405B_UNBALANCED,
    LLAMA3_70B,
    LLAMA3_8B,
    MultimodalConfig,
    TextModelConfig,
    VIT_448,
    VIT_672,
)
from repro.model.flops import model_params


class TestTextConfigs:
    def test_405b_has_126_layers_after_balancing(self):
        # Section 3.1.2: 126 layers instead of 128.
        assert LLAMA3_405B.n_layers == 126
        assert LLAMA3_405B_UNBALANCED.n_layers == 128

    def test_parameter_counts_match_names(self):
        assert model_params(LLAMA3_8B) == pytest.approx(8e9, rel=0.05)
        assert model_params(LLAMA3_70B) == pytest.approx(70e9, rel=0.05)
        assert model_params(LLAMA3_405B) == pytest.approx(405e9, rel=0.05)

    def test_gqa_ratio(self):
        # Query heads per KV head: why all-gather CP is cheap (Section 4).
        assert LLAMA3_405B.n_heads // LLAMA3_405B.n_kv_heads == 16
        assert LLAMA3_8B.n_heads // LLAMA3_8B.n_kv_heads == 4

    def test_vocab_is_128k(self):
        # Section 7.1.2: the 128K vocabulary drives PP imbalance.
        assert LLAMA3_405B.vocab_size == 128256

    def test_with_layers(self):
        assert LLAMA3_405B_SCALED_26L.n_layers == 26
        assert LLAMA3_405B_SCALED_26L.dim == LLAMA3_405B.dim

    def test_validation(self):
        with pytest.raises(ValueError):
            TextModelConfig(name="bad", dim=100, n_layers=2, n_heads=3,
                            n_kv_heads=1, ffn_hidden=10)
        with pytest.raises(ValueError):
            TextModelConfig(name="bad", dim=128, n_layers=2, n_heads=8,
                            n_kv_heads=3, ffn_hidden=10)
        with pytest.raises(ValueError):
            TextModelConfig(name="bad", dim=128, n_layers=0, n_heads=8,
                            n_kv_heads=8, ffn_hidden=10)


class TestVisionConfigs:
    def test_image_token_counts_match_paper(self):
        # Section 3.2.2: ~1.2K tokens at 448px, ~3K at 672px.
        assert VIT_448.num_image_tokens == 1024
        assert VIT_672.num_image_tokens == 2304

    def test_patch_divisibility_enforced(self):
        with pytest.raises(ValueError):
            VIT_448.__class__(
                name="bad", dim=64, n_layers=2, n_heads=4, ffn_hidden=128,
                image_size=450, patch_size=14,
            )


class TestMultimodalConfig:
    def test_cross_layer_count(self):
        mm = MultimodalConfig(text=LLAMA3_8B, vision=VIT_448,
                              self_per_cross=4)
        assert mm.n_cross_layers == 8
        assert mm.image_seq == 1024

    def test_text_seq_much_shorter_than_image_seq(self):
        mm = MultimodalConfig(text=LLAMA3_8B, vision=VIT_672)
        assert mm.text_seq < 200 < mm.image_seq

    def test_ratio_must_divide_layers(self):
        with pytest.raises(ValueError):
            MultimodalConfig(text=LLAMA3_8B, vision=VIT_448,
                             self_per_cross=5)
