"""Per-layer memory accounting: parameters, gradients, optimizer state,
and saved activations.

Activation accounting follows the breakdown popularised by Korthikanti et
al. ("Reducing Activation Recomputation in Large Transformer Models"),
adapted to Llama's SwiGLU FFN and flash attention (no materialised
``seq x seq`` score matrix; only the log-sum-exp statistics are saved).
With tensor + sequence parallelism all per-token activations divide by
``tp``; context parallelism divides the tokens a rank holds by ``cp``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.config import TextModelConfig
from repro.model.flops import (
    embedding_params,
    model_params,
    output_head_params,
)

BF16_BYTES = 2
FP32_BYTES = 4
GIB = 1024.0**3


@dataclass(frozen=True)
class ActivationBreakdown:
    """Bytes saved for backward by one layer, for one micro-batch sequence.

    All fields are totals across the sequence, already divided by the
    tensor-parallel degree (sequence parallelism shards every term).
    """

    attn_inputs: float      # RMSNorm input + Q/K/V projections' input
    qkv: float              # Q, K, V tensors
    attn_output: float      # context tensor feeding the output projection
    softmax_stats: float    # flash-attention log-sum-exp (FP32 per head)
    ffn_inputs: float       # RMSNorm input to the FFN
    ffn_hidden: float       # gate and up projections (the SwiGLU product is
                            # recomputed elementwise in backward, one of the
                            # Section 6.3-style memory optimizations)

    @property
    def total(self) -> float:
        return (
            self.attn_inputs + self.qkv + self.attn_output
            + self.softmax_stats + self.ffn_inputs + self.ffn_hidden
        )


def activation_bytes_per_layer(
    cfg: TextModelConfig,
    seq: int,
    mbs: int = 1,
    tp: int = 1,
    cp: int = 1,
) -> ActivationBreakdown:
    """Saved-activation bytes for one layer and one micro-batch, BF16
    activations with FP32 softmax statistics.

    Args:
        cfg: Model architecture.
        seq: Full sequence length of the batch.
        mbs: Micro-batch size (sequences per micro-batch).
        tp: Tensor-parallel degree (with sequence parallelism).
        cp: Context-parallel degree (shards the sequence dimension).
    """
    if seq <= 0 or mbs <= 0 or tp <= 0 or cp <= 0:
        raise ValueError("seq, mbs, tp, cp must all be positive")
    tokens = seq * mbs / cp / tp
    d, kv = cfg.dim, cfg.kv_dim
    return ActivationBreakdown(
        attn_inputs=BF16_BYTES * tokens * d,
        qkv=BF16_BYTES * tokens * (d + 2 * kv),
        attn_output=BF16_BYTES * tokens * d,
        softmax_stats=FP32_BYTES * tokens * cfg.n_heads,
        ffn_inputs=BF16_BYTES * tokens * d,
        ffn_hidden=BF16_BYTES * tokens * 2 * cfg.ffn_hidden,
    )


def embedding_bytes(cfg: TextModelConfig, tp: int = 1) -> float:
    """BF16 bytes of the input embedding on one TP rank (row-sharded)."""
    return BF16_BYTES * embedding_params(cfg) / tp


def output_head_bytes(cfg: TextModelConfig, tp: int = 1) -> float:
    """BF16 bytes of the output head on one TP rank (column-sharded)."""
    return BF16_BYTES * output_head_params(cfg) / tp


def optimizer_state_bytes_per_param() -> int:
    """Adam with an FP32 master copy: master + exp_avg + exp_avg_sq."""
    return 3 * FP32_BYTES


def training_state_bytes(cfg: TextModelConfig) -> float:
    """Global checkpoint payload: BF16 weights plus full optimizer state.

    This is what a run must persist to resume exactly — the quantity the
    checkpoint policies in :mod:`repro.resilience` price against storage
    bandwidth.  Activations and gradients are excluded: both are
    recomputed/re-reduced after a restart.
    """
    per_param = BF16_BYTES + optimizer_state_bytes_per_param()
    return per_param * model_params(cfg)
