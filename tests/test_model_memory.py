"""Tests for per-layer memory accounting."""

import pytest

from repro.model.config import LLAMA3_405B, LLAMA3_8B
from repro.model.flops import layer_params, model_params
from repro.model.memory import (
    BF16_BYTES,
    activation_bytes_per_layer,
    embedding_bytes,
    optimizer_state_bytes_per_param,
    output_head_bytes,
)
from repro.parallel.config import JobConfig, ParallelConfig
from repro.parallel.memory import estimate_rank_memory


def one_layer(tp: int = 1):
    """ZeRO-1 rank memory of one 8B layer with no activations alive."""
    return estimate_rank_memory(
        LLAMA3_8B, ParallelConfig(tp=tp), JobConfig(seq=8192, gbs=1, ngpu=tp),
        layers_on_rank=1, in_flight_microbatches=0)


class TestActivationAccounting:
    def test_tp_and_cp_shard_linearly(self):
        base = activation_bytes_per_layer(LLAMA3_405B, seq=8192).total
        tp8 = activation_bytes_per_layer(LLAMA3_405B, seq=8192, tp=8).total
        cp4 = activation_bytes_per_layer(LLAMA3_405B, seq=8192, cp=4).total
        assert tp8 == pytest.approx(base / 8)
        assert cp4 == pytest.approx(base / 4)

    def test_scales_with_seq_and_mbs(self):
        a1 = activation_bytes_per_layer(LLAMA3_8B, seq=4096).total
        a2 = activation_bytes_per_layer(LLAMA3_8B, seq=8192).total
        a3 = activation_bytes_per_layer(LLAMA3_8B, seq=4096, mbs=2).total
        assert a2 == pytest.approx(2 * a1)
        assert a3 == pytest.approx(2 * a1)

    def test_ffn_hidden_dominates_for_llama(self):
        b = activation_bytes_per_layer(LLAMA3_405B, seq=8192)
        assert b.ffn_hidden > b.qkv
        assert b.ffn_hidden > 0.4 * b.total

    def test_405b_per_layer_magnitude(self):
        """Sanity: one 8K-seq micro-batch layer on a TP8 rank is a few
        hundred MB — the number that forces pp=16 for 405B."""
        b = activation_bytes_per_layer(LLAMA3_405B, seq=8192, tp=8).total
        assert 0.2e9 < b < 0.6e9

    def test_validation(self):
        with pytest.raises(ValueError):
            activation_bytes_per_layer(LLAMA3_8B, seq=0)
        with pytest.raises(ValueError):
            activation_bytes_per_layer(LLAMA3_8B, seq=8, tp=0)


class TestWeightAccounting:
    def test_layer_param_bytes(self):
        assert one_layer().params == pytest.approx(
            BF16_BYTES * layer_params(LLAMA3_8B)
        )
        assert one_layer(tp=8).params == pytest.approx(one_layer().params / 8)

    def test_grads_fp32_by_default(self):
        # FP32 gradient accumulation across PP micro-batches (Section 6.2).
        assert one_layer().grads == pytest.approx(2 * one_layer().params)

    def test_optimizer_state_is_12_bytes(self):
        assert optimizer_state_bytes_per_param() == 12

    def test_full_model_405b_bf16_812gb(self):
        # 405B params in BF16 ~ 812 GB: far beyond one 80 GB GPU, the
        # reason model parallelism exists at all.
        assert BF16_BYTES * model_params(LLAMA3_405B) > 10 * 80e9

    def test_embedding_and_head_hefty_at_128k_vocab(self):
        # Each is ~4 GB in BF16 before TP sharding (Section 7.1.2).
        assert embedding_bytes(LLAMA3_405B) > 4e9
        assert output_head_bytes(LLAMA3_405B) > 4e9
