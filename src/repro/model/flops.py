"""FLOP and parameter accounting for text and multimodal models.

Conventions:

* One multiply-accumulate counts as 2 FLOPs.
* A GEMM backward costs 2x its forward (one GEMM for the input gradient and
  one for the weight gradient).  **Frozen** layers skip the weight-gradient
  GEMM and cost only 1x forward — the multimodal workload-imbalance driver
  of Section 3.2.2.
* Attention score FLOPs scale with the *mask fraction*: the share of the
  full ``seq x seq`` score matrix actually computed.  A causal mask computes
  ~half; a document (block-causal) mask computes less, in proportion to the
  squared document lengths — the source of the CP workload imbalance in
  Figures 11 and 14.
"""

from __future__ import annotations

from typing import Optional

from repro.model.config import (
    MultimodalConfig,
    TextModelConfig,
    VisionEncoderConfig,
)


# ---------------------------------------------------------------------------
# Parameter counts
# ---------------------------------------------------------------------------

def layer_params(cfg: TextModelConfig) -> int:
    """Parameters in one transformer layer (attention + FFN + norms).

    For an MoE layer the FFN part is ``n_experts`` full SwiGLU experts
    plus the router — see :func:`expert_params` for the slice that
    expert parallelism shards."""
    d = cfg.dim
    attn = d * d + 2 * d * cfg.kv_dim + d * d  # Wq, Wk+Wv, Wo
    norms = 2 * d
    if cfg.is_moe:
        ffn = expert_params(cfg) + d * cfg.n_experts  # experts + router
    else:
        ffn = 3 * d * cfg.ffn_hidden               # W_gate, W_up, W_down
    return attn + ffn + norms


def expert_params(cfg: TextModelConfig) -> int:
    """Expert-FFN parameters in one MoE layer (0 for dense models) — the
    slice of :func:`layer_params` that expert parallelism divides by
    ``ep``, since each EP rank stores only its own experts."""
    if not cfg.is_moe:
        return 0
    return 3 * cfg.dim * cfg.ffn_hidden * cfg.n_experts


def embedding_params(cfg: TextModelConfig) -> int:
    """Input embedding table parameters."""
    return cfg.vocab_size * cfg.dim


def output_head_params(cfg: TextModelConfig) -> int:
    """Output projection (untied in Llama 3) plus final norm."""
    return cfg.vocab_size * cfg.dim + cfg.dim


def model_params(cfg: TextModelConfig) -> int:
    """Total text-model parameters."""
    return (
        cfg.n_layers * layer_params(cfg)
        + embedding_params(cfg)
        + output_head_params(cfg)
    )


# ---------------------------------------------------------------------------
# Mask fractions
# ---------------------------------------------------------------------------

def causal_mask_fraction(seq: int) -> float:
    """Fraction of the seq x seq score matrix under a causal mask."""
    if seq <= 0:
        raise ValueError("seq must be positive")
    return (seq + 1) / (2.0 * seq)


# ---------------------------------------------------------------------------
# Text layer FLOPs
# ---------------------------------------------------------------------------

def attention_score_flops(
    cfg: TextModelConfig, seq: int, mask_fraction: Optional[float] = None
) -> float:
    """Forward FLOPs of QK^T plus attention-weighted V for one sequence."""
    if mask_fraction is None:
        mask_fraction = causal_mask_fraction(seq)
    # Each of QK^T and PV is 2 * seq * seq * dim at full density.
    return 2 * (2.0 * seq * seq * cfg.dim) * mask_fraction


def layer_linear_flops(cfg: TextModelConfig, seq: int) -> float:
    """Forward FLOPs of the GEMMs in one layer for ``seq`` tokens.

    MoE layers count *active* FLOPs: every token runs through ``top_k``
    experts (not all of them) plus the router projection — the
    denominator convention MoE MFU figures use."""
    d, f = cfg.dim, cfg.ffn_hidden
    qkvo = 2.0 * seq * d * (d + 2 * cfg.kv_dim + d)
    if cfg.is_moe:
        ffn = 2.0 * seq * d * f * 3 * cfg.top_k
        ffn += 2.0 * seq * d * cfg.n_experts  # router scores
    else:
        ffn = 2.0 * seq * d * f * 3
    return qkvo + ffn


def layer_forward_flops(
    cfg: TextModelConfig, seq: int, mask_fraction: Optional[float] = None
) -> float:
    """Forward FLOPs of one full transformer layer for one sequence."""
    return layer_linear_flops(cfg, seq) + attention_score_flops(
        cfg, seq, mask_fraction
    )


def layer_backward_flops(
    cfg: TextModelConfig,
    seq: int,
    mask_fraction: Optional[float] = None,
    frozen: bool = False,
) -> float:
    """Backward FLOPs of one layer.

    Frozen layers (multimodal text stack, Section 3.2.2) compute only input
    gradients: 1x forward for the GEMMs.  Attention scores have no weights,
    so their backward always costs ~2x forward.
    """
    linear_factor = 1.0 if frozen else 2.0
    return (
        linear_factor * layer_linear_flops(cfg, seq)
        + 2.0 * attention_score_flops(cfg, seq, mask_fraction)
    )


def output_head_flops(cfg: TextModelConfig, seq: int) -> float:
    """Forward FLOPs of the vocabulary projection for ``seq`` tokens."""
    return 2.0 * seq * cfg.dim * cfg.vocab_size


def model_forward_flops(
    cfg: TextModelConfig, seq: int, mask_fraction: Optional[float] = None
) -> float:
    """Forward FLOPs of the whole text model for one sequence."""
    return (
        cfg.n_layers * layer_forward_flops(cfg, seq, mask_fraction)
        + output_head_flops(cfg, seq)
    )


def model_step_flops(
    cfg: TextModelConfig,
    tokens_per_step: float,
    seq: int,
    mask_fraction: Optional[float] = None,
    recompute: bool = False,
) -> float:
    """Hardware FLOPs of one optimizer step over ``tokens_per_step`` tokens.

    Forward + backward (3x forward for trained layers); activation
    recomputation adds one extra forward (Section 7.1.2's 17.5% TFLOPs win
    comes from turning this off).
    """
    sequences = tokens_per_step / seq
    fwd = model_forward_flops(cfg, seq, mask_fraction)
    layer_bwd = cfg.n_layers * layer_backward_flops(cfg, seq, mask_fraction)
    head_bwd = 2.0 * output_head_flops(cfg, seq)
    per_seq = fwd + layer_bwd + head_bwd
    if recompute:
        per_seq += fwd
    return sequences * per_seq


# ---------------------------------------------------------------------------
# Vision / multimodal FLOPs
# ---------------------------------------------------------------------------

def vision_forward_flops(cfg: VisionEncoderConfig) -> float:
    """Forward FLOPs of the ViT for one image (full bidirectional attention)."""
    s, d, f = cfg.num_image_tokens, cfg.dim, cfg.ffn_hidden
    per_layer = 2.0 * s * d * 4 * d + 2.0 * s * d * f * 2 + 2 * (2.0 * s * s * d)
    patch_embed = 2.0 * s * (3 * cfg.patch_size**2) * d
    return cfg.n_layers * per_layer + patch_embed


def vision_step_flops(cfg: VisionEncoderConfig) -> float:
    """Forward + backward FLOPs for one image (encoder is trained)."""
    return 3.0 * vision_forward_flops(cfg)


def cross_attention_forward_flops(cfg: MultimodalConfig) -> float:
    """Forward FLOPs of one cross-attention layer for one sample.

    Q comes from ``text_seq`` text tokens; K/V from ``image_seq`` image
    tokens; scores are text_seq x image_seq and dense (no causal structure
    across modalities).  Because image_seq >> text_seq, this dominates the
    multimodal text stack (Section 3.2.2).
    """
    st, si = cfg.text_seq, cfg.image_seq
    d, f = cfg.text.dim, cfg.text.ffn_hidden
    q_proj = 2.0 * st * d * d
    kv_proj = 2.0 * si * d * (2 * cfg.text.kv_dim)
    scores = 2 * (2.0 * st * si * d)
    out_proj = 2.0 * st * d * d
    ffn = 2.0 * st * d * f * 3
    return q_proj + kv_proj + scores + out_proj + ffn


def self_attention_forward_flops(cfg: MultimodalConfig) -> float:
    """Forward FLOPs of one (frozen) self-attention text layer for one
    sample during multimodal training (short text sequence)."""
    return layer_forward_flops(cfg.text, cfg.text_seq)


def multimodal_layer_step_flops(cfg: MultimodalConfig) -> dict:
    """Forward+backward FLOPs per layer type for one sample.

    Returns a dict with ``self`` (frozen: fwd + input-grad bwd) and
    ``cross`` (trained: fwd + full bwd) entries; the ratio between them is
    the PP imbalance the paper balances with 4:1 grouping.
    """
    self_fwd = self_attention_forward_flops(cfg)
    self_bwd = layer_backward_flops(cfg.text, cfg.text_seq, frozen=True)
    cross_fwd = cross_attention_forward_flops(cfg)
    return {
        "self": self_fwd + self_bwd,
        "cross": 3.0 * cross_fwd,
    }
