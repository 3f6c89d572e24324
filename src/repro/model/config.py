"""Model architecture configurations for Llama 3 text and multimodal models.

These are plain descriptions of the architectures the paper trains: the 405B
text model (126 layers after the balanced-PP co-design of Section 3.1.2),
the scaled-down 26/28-layer variants used for the PP experiments in
Section 7.1, and the multimodal model of Section 3.2 (a ViT image encoder
plus cross-attention layers inserted into the frozen text stack).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class TextModelConfig:
    """A Llama-style decoder-only transformer.

    Attributes:
        name: Human-readable identifier.
        dim: Hidden size.
        n_layers: Number of transformer layers.
        n_heads: Number of attention (query) heads.
        n_kv_heads: Number of key/value heads (GQA when < n_heads).
        ffn_hidden: SwiGLU FFN inner dimension (per projection).
        vocab_size: Vocabulary size (128K for Llama 3, Section 7.1.2).
        norm_eps: RMSNorm epsilon (kept for completeness).
        rope_theta: RoPE base frequency.
        n_experts: MoE expert count per layer; 0 means dense (every
            Llama 3 production model).  Each expert is a full
            ``ffn_hidden``-wide SwiGLU FFN.
        top_k: Experts each token is routed to (when ``n_experts > 0``).
        capacity_factor: Per-expert buffer headroom over the balanced
            ``tokens * top_k / n_experts`` load; tokens past capacity
            are dropped (see :mod:`repro.train.moe`).
    """

    name: str
    dim: int
    n_layers: int
    n_heads: int
    n_kv_heads: int
    ffn_hidden: int
    vocab_size: int = 128256
    norm_eps: float = 1e-5
    rope_theta: float = 500000.0
    n_experts: int = 0
    top_k: int = 2
    capacity_factor: float = 1.25

    def __post_init__(self) -> None:
        if self.dim % self.n_heads != 0:
            raise ValueError("dim must be divisible by n_heads")
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError("n_heads must be divisible by n_kv_heads")
        for field_name in ("dim", "n_layers", "n_heads", "n_kv_heads",
                           "ffn_hidden", "vocab_size"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.n_experts < 0:
            raise ValueError("n_experts must be >= 0 (0 = dense)")
        if self.n_experts > 0:
            if not 1 <= self.top_k <= self.n_experts:
                raise ValueError("top_k must be in [1, n_experts]")
            if self.capacity_factor <= 0:
                raise ValueError("capacity_factor must be positive")

    @property
    def is_moe(self) -> bool:
        return self.n_experts > 0

    @property
    def head_dim(self) -> int:
        return self.dim // self.n_heads

    @property
    def kv_dim(self) -> int:
        """Width of the K (or V) projection output."""
        return self.n_kv_heads * self.head_dim

    def with_layers(self, n_layers: int) -> "TextModelConfig":
        """Same architecture with a different layer count (Section 7.1
        scaled-down models; Section 3.1.2 balanced-PP co-design)."""
        return replace(self, n_layers=n_layers,
                       name=f"{self.name}-L{n_layers}")

    def moe_variant(
        self,
        n_experts: int,
        top_k: int = 2,
    ) -> "TextModelConfig":
        """The MoE counterpart of this architecture: every dense FFN is
        replaced by ``n_experts`` experts of the same ``ffn_hidden``
        width with top-``k`` routing (the `repro step --experts N`
        surface); the capacity factor stays this config's."""
        if n_experts < 1:
            raise ValueError("n_experts must be >= 1 for an MoE variant")
        return replace(self, n_experts=n_experts, top_k=top_k,
                       name=f"{self.name}-moe{n_experts}e")


@dataclass(frozen=True)
class VisionEncoderConfig:
    """A ViT image encoder (Section 3.2).

    Attributes:
        name: Human-readable identifier.
        dim: Hidden size.
        n_layers: Transformer layer count.
        n_heads: Attention heads.
        ffn_hidden: MLP inner dimension.
        image_size: Input resolution in pixels (448 early, 672 later —
            the change that pushed encoder cost from manageable to 33%
            of step latency, Section 3.2.1).
        patch_size: ViT patch edge in pixels.
    """

    name: str
    dim: int
    n_layers: int
    n_heads: int
    ffn_hidden: int
    image_size: int = 448
    patch_size: int = 14

    def __post_init__(self) -> None:
        if self.image_size % self.patch_size != 0:
            raise ValueError("image_size must be divisible by patch_size")

    @property
    def head_dim(self) -> int:
        return self.dim // self.n_heads

    @property
    def num_image_tokens(self) -> int:
        """Output sequence length per image: (size / patch)^2.

        448 px / 14 -> 1024 tokens; 672 px / 14 -> 2304 tokens, matching
        the paper's "1.2K tokens for 448x448 and 3K for 672x672" (which
        include a handful of special tokens we omit).
        """
        side = self.image_size // self.patch_size
        return side * side


@dataclass(frozen=True)
class MultimodalConfig:
    """Llama 3 multimodal model: frozen text stack + trained cross-attention
    layers and image encoder (Section 3.2).

    Attributes:
        text: The (frozen) text model.
        vision: The (trained) image encoder.
        self_per_cross: Self-attention layers per inserted cross-attention
            layer.  The paper settles on a 4:1 layer ratio via co-design
            (Section 3.2.2).
        text_seq: Text sequence length during multimodal pre-training
            (< 200 tokens, Section 3.2.2).
    """

    text: TextModelConfig
    vision: VisionEncoderConfig
    self_per_cross: int = 4
    text_seq: int = 192

    def __post_init__(self) -> None:
        if self.self_per_cross <= 0:
            raise ValueError("self_per_cross must be positive")
        if self.text.n_layers % self.self_per_cross != 0:
            raise ValueError(
                "text layers must divide evenly into self/cross groups"
            )

    @property
    def n_cross_layers(self) -> int:
        return self.text.n_layers // self.self_per_cross

    @property
    def image_seq(self) -> int:
        return self.vision.num_image_tokens


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

#: Llama 3 8B.
LLAMA3_8B = TextModelConfig(
    name="llama3-8b", dim=4096, n_layers=32, n_heads=32, n_kv_heads=8,
    ffn_hidden=14336,
)

#: Llama 3 70B.
LLAMA3_70B = TextModelConfig(
    name="llama3-70b", dim=8192, n_layers=80, n_heads=64, n_kv_heads=8,
    ffn_hidden=28672,
)

#: Llama 3 405B as trained: 126 layers after removing one layer from the
#: first and last PP stages (Section 3.1.2).
LLAMA3_405B = TextModelConfig(
    name="llama3-405b", dim=16384, n_layers=126, n_heads=128, n_kv_heads=8,
    ffn_hidden=53248,
)

#: The original, unbalanced 128-layer configuration.
LLAMA3_405B_UNBALANCED = LLAMA3_405B.with_layers(128)

#: Scaled-down 405B used for the Section 7.1 PP experiments: same model
#: dimensions, 26 layers (balanced) / 28 layers (uniform).
LLAMA3_405B_SCALED_26L = LLAMA3_405B.with_layers(26)
LLAMA3_405B_SCALED_28L = LLAMA3_405B.with_layers(28)

#: The 405B-based multimodal model at each production resolution: one
#: cross-attention layer per 4 self-attention layers (Section 3.2.2's
#: co-designed ratio).  Uses the 128-layer text stack (divisible by 4).
def _multimodal(vision: "VisionEncoderConfig") -> "MultimodalConfig":
    return MultimodalConfig(
        text=LLAMA3_405B_UNBALANCED, vision=vision, self_per_cross=4
    )


#: ViT encoders at the two production resolutions (Section 3.2.1).
VIT_448 = VisionEncoderConfig(
    name="vit-g-448", dim=1792, n_layers=40, n_heads=16, ffn_hidden=7168,
    image_size=448,
)
VIT_672 = VisionEncoderConfig(
    name="vit-g-672", dim=1792, n_layers=48, n_heads=16, ffn_hidden=7168,
    image_size=672,
)

LLAMA3_MULTIMODAL_448 = _multimodal(VIT_448)
LLAMA3_MULTIMODAL_672 = _multimodal(VIT_672)
