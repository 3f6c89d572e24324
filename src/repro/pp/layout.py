"""Layer placement across pipeline stages, including the balanced co-design.

Global stages are ordered end-to-end: stage ``s`` holds a contiguous block
of model layers, with the input embedding attached to stage 0 and the output
head to the last stage.  Llama 3's 128K vocabulary makes both modules heavy
(Section 7.1.2), so uniform layer sharding leaves the first rank short of
memory and the last rank long on compute.

The paper's fix is model co-design: train 126 layers instead of 128 so the
first and last stages carry one layer less (Section 3.1.2).  Here that falls
out naturally: :func:`build_layout` distributes any layer count over the
stages, giving remainder layers to middle stages first, so 126 layers over
128 stages leaves stage 0 with only the embedding and the last stage with
only the head — the "shorter first and last model chunks" of Section 7.3.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class StageAssignment:
    """What one global pipeline stage hosts."""

    stage: int
    layers: Tuple[int, ...]
    has_embedding: bool = False
    has_output_head: bool = False

    @property
    def n_layers(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class PipelineLayout:
    """Assignment of model layers (and embedding/head) to global stages."""

    pp: int
    v: int
    stages: Tuple[StageAssignment, ...]

    @property
    def num_stages(self) -> int:
        return self.pp * self.v

    @property
    def n_layers(self) -> int:
        return sum(s.n_layers for s in self.stages)

    def stage(self, global_stage: int) -> StageAssignment:
        return self.stages[global_stage]

    def stages_of_rank(self, ppr: int) -> List[StageAssignment]:
        """The v stages hosted by one rank, in virtual-stage order."""
        if not 0 <= ppr < self.pp:
            raise ValueError(f"ppr {ppr} out of range")
        return [self.stages[vs * self.pp + ppr] for vs in range(self.v)]

    def layers_on_rank(self, ppr: int) -> int:
        return sum(s.n_layers for s in self.stages_of_rank(ppr))

    def global_stage(self, ppr: int, virtual_stage: int) -> int:
        if not 0 <= virtual_stage < self.v:
            raise ValueError(f"virtual stage {virtual_stage} out of range")
        return virtual_stage * self.pp + ppr


def build_layout(n_layers: int, pp: int, v: int) -> PipelineLayout:
    """Distribute ``n_layers`` over ``pp * v`` stages.

    Layers are assigned contiguously in stage order; when the count does
    not divide evenly, the *middle* stages receive the extra layers so the
    embedding-bearing first stage and head-bearing last stage stay light.
    A 126-layer model over 128 stages therefore puts zero transformer
    layers on the first and last stages — the paper's balanced placement.
    """
    if n_layers < 0:
        raise ValueError("n_layers must be non-negative")
    if pp < 1 or v < 1:
        raise ValueError("pp and v must be >= 1")
    num_stages = pp * v
    base, rem = divmod(n_layers, num_stages)
    counts = [base] * num_stages
    # Stages sorted by distance from the ends, farthest (most central)
    # first; ties broken toward earlier stages for determinism.
    by_centrality = sorted(
        range(num_stages), key=lambda s: (-min(s, num_stages - 1 - s), s)
    )
    for s in by_centrality[:rem]:
        counts[s] += 1
    stages = []
    next_layer = 0
    for s, count in enumerate(counts):
        stages.append(
            StageAssignment(
                stage=s,
                layers=tuple(range(next_layer, next_layer + count)),
                has_embedding=(s == 0),
                has_output_head=(s == num_stages - 1),
            )
        )
        next_layer += count
    return PipelineLayout(pp=pp, v=v, stages=tuple(stages))


def build_layout_from_counts(
    counts: Sequence[int], pp: int, v: int
) -> PipelineLayout:
    """Explicit per-stage layer counts (for custom placements and tests)."""
    if len(counts) != pp * v:
        raise ValueError(
            f"need {pp * v} stage counts, got {len(counts)}"
        )
    if any(c < 0 for c in counts):
        raise ValueError("stage layer counts must be non-negative")
    stages = []
    next_layer = 0
    for s, count in enumerate(counts):
        stages.append(
            StageAssignment(
                stage=s,
                layers=tuple(range(next_layer, next_layer + count)),
                has_embedding=(s == 0),
                has_output_head=(s == pp * v - 1),
            )
        )
        next_layer += count
    return PipelineLayout(pp=pp, v=v, stages=tuple(stages))
