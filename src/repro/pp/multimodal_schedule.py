"""Event-level simulation of the multimodal pipeline (Section 3.2.2).

:mod:`repro.pp.multimodal` scores the self/cross layer groupings with a
closed-form slowest-stage model; this module builds the actual
heterogeneous per-stage costs — frozen self-attention layers with cheap
backwards, heavy cross-attention layers — and executes a real pipeline
schedule on the simulator, so the imbalance penalty emerges from event
timing rather than a formula.  The tests cross-check the two models agree
on the winner (WRAPPED).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

from repro.hardware.cluster import ClusterSpec
from repro.model.config import MultimodalConfig
from repro.model.flops import (
    cross_attention_forward_flops,
    layer_backward_flops,
    self_attention_forward_flops,
)
from repro.pp.analysis import ScheduleShape, default_nc
from repro.pp.layout import build_layout_from_counts
from repro.pp.multimodal import LayerGrouping, _SUSTAINED_EFFICIENCY
from repro.pp.schedule import build_flexible_schedule

if TYPE_CHECKING:  # typing only — avoids a package import cycle
    from repro.train.executor import PipelineRun


@dataclass(frozen=True)
class MultimodalPipelineResult:
    """Executed multimodal pipeline metrics for one grouping."""

    grouping: LayerGrouping
    run: "PipelineRun"
    num_stages: int

    @property
    def makespan(self) -> float:
        return self.run.makespan

    @property
    def bubble_ratio(self) -> float:
        return self.run.mean_bubble_ratio

    @property
    def relative_throughput(self) -> float:
        """Useful work per wall-clock second (total busy / makespan /
        pp) — comparable across groupings because total work is equal."""
        return sum(self.run.per_rank_busy) / self.run.makespan / self.run.pp


def stage_costs(
    mm: MultimodalConfig,
    grouping: LayerGrouping,
    cluster: ClusterSpec,
) -> Tuple[List[float], List[float]]:
    """(forward, backward) seconds per global stage for one grouping.

    Frozen self-attention layers skip weight gradients (backward ~= 1x
    forward for the GEMMs); trained cross-attention layers pay the full
    2x — the imbalance driver of Section 3.2.2.
    """
    rate = cluster.gpu.peak_flops * _SUSTAINED_EFFICIENCY
    self_fwd = self_attention_forward_flops(mm) / rate
    self_bwd = layer_backward_flops(mm.text, mm.text_seq, frozen=True) / rate
    cross_fwd = cross_attention_forward_flops(mm) / rate
    cross_bwd = 2.0 * cross_fwd
    n = mm.self_per_cross

    if grouping is LayerGrouping.WRAPPED:
        fwd = [n * self_fwd + cross_fwd] * mm.n_cross_layers
        bwd = [n * self_bwd + cross_bwd] * mm.n_cross_layers
    elif grouping is LayerGrouping.SEPARATE:
        fwd, bwd = [], []
        for _ in range(mm.n_cross_layers):
            fwd += [n * self_fwd, cross_fwd]
            bwd += [n * self_bwd, cross_bwd]
    else:
        raise ValueError(f"unknown grouping {grouping!r}")
    return fwd, bwd


def simulate_multimodal_pipeline(
    mm: MultimodalConfig,
    grouping: LayerGrouping,
    pp: int,
    nmb: int,
    cluster: ClusterSpec,
) -> MultimodalPipelineResult:
    """Execute one grouping's pipeline (50 us P2P hand-offs) and return
    measured metrics."""
    from repro.train.cost import StageCost
    from repro.train.executor import execute_pipeline

    fwd, bwd = stage_costs(mm, grouping, cluster)
    num_stages = len(fwd)
    if num_stages % pp != 0:
        raise ValueError(
            f"{num_stages} stages not divisible by pp={pp}"
        )
    v = num_stages // pp
    shape = ScheduleShape(pp=pp, v=v, nc=default_nc(pp, nmb), nmb=nmb)
    schedule = build_flexible_schedule(shape)
    # One "layer" per stage so layout bookkeeping lines up.
    layout = build_layout_from_counts([1] * num_stages, pp, v)

    run = execute_pipeline(
        schedule, layout,
        lambda stage: StageCost(fwd[stage.stage], 0.0, 0.0),
        lambda stage: StageCost(bwd[stage.stage], 0.0, 0.0),
        p2p_seconds=50e-6,
    )
    return MultimodalPipelineResult(
        grouping=grouping, run=run, num_stages=num_stages,
    )


def compare_groupings_event_level(
    mm: MultimodalConfig,
    pp: int,
    nmb: int,
    cluster: ClusterSpec,
) -> List[MultimodalPipelineResult]:
    """Both groupings, executed; same order as
    :func:`repro.pp.multimodal.compare_layer_grouping`."""
    return [
        simulate_multimodal_pipeline(mm, g, pp, nmb, cluster)
        for g in (LayerGrouping.WRAPPED, LayerGrouping.SEPARATE)
    ]
