"""Multimodal pipeline sharding (Section 3.2): image-encoder placement and
self/cross-attention layer grouping.

Two decisions drive multimodal PP efficiency:

1. **Where the ViT encoder runs** (Figure 6).  Options:

   * ``WHOLE_MODEL_PP`` (Option 1) — encoder on the first PP rank, image
     tokens forwarded along with activations over P2P.
   * ``ENCODER_AS_PREPROCESS`` (Option 2) — encoder runs the whole batch
     on the first rank as a pre-processing stage, outputs broadcast to all
     stages.
   * ``ENCODER_REPLICATED`` (Option 3) — encoder replicated on every PP
     rank, each processing ``bs / pp`` of the batch in parallel, outputs
     all-gathered.  This is what shipped: it cut the encoder share of step
     latency from 33% to 8% after the 672 px resolution change.

2. **How self- and cross-attention layers group into virtual stages**
   (Section 3.2.2).  Wrapping ``n`` self + 1 cross per stage balances
   per-stage work but yields fewer stages (bigger ideal bubble); separate
   stages yield more stages but imbalanced work, and the pipeline beats to
   the slowest stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List

from repro.hardware.cluster import ClusterSpec
from repro.model.config import MultimodalConfig
from repro.model.flops import (
    multimodal_layer_step_flops,
    vision_step_flops,
)
from repro.pp.analysis import bubble_ratio
from repro.sim.collectives import all_gather_time, broadcast_time

#: Fraction of peak the encoder and text stacks sustain; ratios between
#: options are insensitive to this value.
_SUSTAINED_EFFICIENCY = 0.45


class EncoderSharding(Enum):
    WHOLE_MODEL_PP = 1       # Figure 6a
    ENCODER_AS_PREPROCESS = 2  # Figure 6b
    ENCODER_REPLICATED = 3   # Figure 6c


@dataclass(frozen=True)
class EncoderShardingResult:
    """Step-time decomposition for one encoder-sharding option."""

    option: EncoderSharding
    encoder_seconds: float
    text_seconds: float
    comm_seconds: float

    @property
    def step_seconds(self) -> float:
        return self.encoder_seconds + self.text_seconds + self.comm_seconds

    @property
    def encoder_ratio(self) -> float:
        """Encoder share of combined image+text step latency — the 33% vs
        8% metric of Section 3.2.1."""
        return self.encoder_seconds / self.step_seconds


def _sustained_flops(cluster: ClusterSpec) -> float:
    return cluster.gpu.peak_flops * _SUSTAINED_EFFICIENCY


def _text_stack_seconds(
    mm: MultimodalConfig, bs: int, pp: int, nmb: int, cluster: ClusterSpec
) -> float:
    """Pipeline time of the multimodal text stack (frozen self layers +
    trained cross layers), per DP group, with the ideal bubble applied."""
    per_layer = multimodal_layer_step_flops(mm)
    n_self = mm.text.n_layers
    n_cross = mm.n_cross_layers
    flops_per_sample = n_self * per_layer["self"] + n_cross * per_layer["cross"]
    compute = bs * flops_per_sample / _sustained_flops(cluster) / pp
    v = max(n_cross // pp, 1)
    return compute * (1.0 + bubble_ratio(pp, max(nmb, 1), v))


def evaluate_encoder_sharding(
    mm: MultimodalConfig,
    option: EncoderSharding,
    bs: int,
    pp: int,
    cluster: ClusterSpec,
) -> EncoderShardingResult:
    """Step-time decomposition of one sharding option for one DP group
    (one image per sample).

    The text-pipeline term is identical across options; what changes is
    whether the encoder's ``bs`` images run serially on one rank (Options
    1-2) or ``bs / pp`` per rank in parallel (Option 3), and which
    collective moves the image tokens.
    """
    if bs < 1 or pp < 1:
        raise ValueError("bs and pp must be >= 1")
    n_images = bs
    per_image = vision_step_flops(mm.vision) / _sustained_flops(cluster)
    nmb = bs
    text_seconds = _text_stack_seconds(mm, bs, pp, nmb, cluster)

    image_token_bytes = (
        2.0 * n_images * mm.image_seq * mm.text.dim
    )  # BF16 encoder outputs
    pp_group = list(range(pp))  # representative contiguous ranks

    if option is EncoderSharding.WHOLE_MODEL_PP:
        # Encoder serial on rank 0; image tokens ride the existing P2P
        # chain, growing every stage hand-off.  We charge the extra P2P
        # as comm: (pp - 1) hops of the full image payload per step.
        encoder_seconds = n_images * per_image
        from repro.sim.collectives import p2p_time

        comm = (pp - 1) * p2p_time(cluster, 0, cluster.gpus_per_node,
                                   image_token_bytes / max(nmb, 1))
    elif option is EncoderSharding.ENCODER_AS_PREPROCESS:
        # Encoder serial on rank 0, then one broadcast of all image tokens
        # to the pp stages (Figure 6b).
        encoder_seconds = n_images * per_image
        comm = broadcast_time(cluster, pp_group, image_token_bytes).seconds
    elif option is EncoderSharding.ENCODER_REPLICATED:
        # Each rank encodes bs/pp of the batch in parallel, then the
        # outputs are all-gathered (Figure 6c).
        encoder_seconds = math.ceil(n_images / pp) * per_image
        comm = all_gather_time(cluster, pp_group, image_token_bytes).seconds
    else:
        raise ValueError(f"unknown option {option!r}")

    return EncoderShardingResult(
        option=option,
        encoder_seconds=encoder_seconds,
        text_seconds=text_seconds,
        comm_seconds=comm,
    )


class LayerGrouping(Enum):
    """Section 3.2.2's two placements of text-model layers into virtual
    stages."""

    WRAPPED = 1    # n self-attention layers + 1 cross-attention per stage
    SEPARATE = 2   # each stage holds either self layers or one cross layer


@dataclass(frozen=True)
class GroupingResult:
    """Pipeline-efficiency metrics for one layer-grouping choice."""

    grouping: LayerGrouping
    num_stages: int
    v: int
    stage_costs: List[float]
    ideal_bubble: float

    @property
    def imbalance(self) -> float:
        """Max over mean per-stage cost; 1.0 is perfectly balanced."""
        mean = sum(self.stage_costs) / len(self.stage_costs)
        return max(self.stage_costs) / mean if mean > 0 else 1.0

    @property
    def effective_step_cost(self) -> float:
        """Relative step cost: the pipeline beats to its slowest stage and
        pays the ideal bubble on top — ``max_stage * stages * (1 + bubble)``
        normalised by total work."""
        total = sum(self.stage_costs)
        slowest = max(self.stage_costs)
        return slowest * len(self.stage_costs) * (1 + self.ideal_bubble) / total


def compare_layer_grouping(
    mm: MultimodalConfig, pp: int, nmb: int
) -> List[GroupingResult]:
    """Evaluate both groupings; the paper adopts WRAPPED (Option 1) because
    its balance outweighs SEPARATE's smaller ideal bubble."""
    per_layer = multimodal_layer_step_flops(mm)
    n_cross = mm.n_cross_layers
    n = mm.self_per_cross

    wrapped_costs = [
        n * per_layer["self"] + per_layer["cross"] for _ in range(n_cross)
    ]
    v_wrapped = max(n_cross // pp, 1)
    wrapped = GroupingResult(
        grouping=LayerGrouping.WRAPPED,
        num_stages=n_cross,
        v=v_wrapped,
        stage_costs=wrapped_costs,
        ideal_bubble=bubble_ratio(pp, nmb, v_wrapped),
    )

    separate_costs = []
    for _ in range(n_cross):
        separate_costs.append(n * per_layer["self"])  # a block of self layers
        separate_costs.append(per_layer["cross"])     # one cross layer
    v_separate = max(len(separate_costs) // pp, 1)
    separate = GroupingResult(
        grouping=LayerGrouping.SEPARATE,
        num_stages=len(separate_costs),
        v=v_separate,
        stage_costs=separate_costs,
        ideal_bubble=bubble_ratio(pp, nmb, v_separate),
    )
    return [wrapped, separate]
