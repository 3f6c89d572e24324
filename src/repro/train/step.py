"""End-to-end training-step simulation: the Section 7.3 numbers.

Lowers one optimizer step — pipeline schedule, per-op TP/CP/P2P
communication, FSDP parameter all-gathers and gradient reduce-scatters,
and the optimizer — onto a single step graph
(:mod:`repro.train.lowering`) and interprets it on one simulator
timeline.  The step time *is* the timeline's makespan: FSDP overlap (only
the first parameter all-gather and the last gradient reduce-scatter
exposed, Section 7.3.1) emerges from the ``fsdp`` stream racing the
``compute`` stream rather than being asserted as scalar add-ons.  The
report carries achieved TFLOPs/GPU, MFU, tokens/s, measured bubble
ratios, and per-rank peak memory — the quantities behind Figures 9 and 10
and the 400/380 TFLOPs headline results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids a cycle)
    from repro.faults.inject import InjectionReport
    from repro.faults.models import FaultPlan

from repro.hardware.cluster import ClusterSpec
from repro.model.config import TextModelConfig
from repro.model.flops import expert_params, layer_params, model_step_flops
from repro.model.memory import (
    BF16_BYTES,
    FP32_BYTES,
    GIB,
    activation_bytes_per_layer,
    embedding_bytes,
    output_head_bytes,
    optimizer_state_bytes_per_param,
)
from repro.obs.metrics import (
    MetricsRegistry,
    pp_rank_map,
    record_simulator_metrics,
)
from repro.parallel.config import JobConfig, ParallelConfig
from repro.pp.analysis import ScheduleShape, default_nc
from repro.pp.grad_memory import track_memory
from repro.pp.heterogeneity import stage_profile as _stage_profile
from repro.pp.layout import PipelineLayout, build_layout
from repro.pp.registry import schedule_entry
from repro.pp.schedule import build_schedule
from repro.sim.engine import Simulator
from repro.train.cost import CostModel
from repro.train.executor import (
    GraphExecution,
    PipelineRun,
    execute_graph,
    summarize_pipeline_execution,
)
from repro.train.lowering import lower_step


@dataclass(frozen=True)
class StepReport:
    """One simulated optimizer step."""

    #: The step's per-rank time record; the decomposition below reads it.
    run: PipelineRun
    model_flops: float
    ngpu: int
    per_rank_peak_memory_gb: Tuple[float, ...]
    #: Per-GPU peak FLOPs of the simulated hardware (MFU denominator).
    peak_flops: float = 0.0
    #: Tokens consumed by this step across the job.
    tokens_per_step: int = 0
    #: The interpreted step graph (events by uid), for timeline
    #: verification (:func:`repro.verify.invariants.run_step_invariants`).
    execution: Optional[GraphExecution] = None
    #: What fault injection rewrote, when the step ran under a fault plan
    #: (:func:`repro.faults.inject.apply_fault_plan`); None when healthy.
    fault_injection: Optional["InjectionReport"] = None
    #: Name of the pipeline schedule the step ran under (the built
    #: :attr:`~repro.pp.schedule.PipelineSchedule.name`, which may differ
    #: from the requested kind when a 1F1B-family schedule degenerates).
    schedule: str = ""
    #: Hot-expert routing imbalance the step ran under: 1.0 for a
    #: balanced router (and always for dense models); the injected
    #: :class:`repro.faults.HotExpert` imbalance otherwise.
    expert_imbalance: float = 1.0
    #: Fraction of routed token slots dropped at that imbalance under
    #: the model's ``capacity_factor`` (0.0 for dense models) — the MoE
    #: training-quality signal next to the throughput numbers.
    dropped_token_fraction: float = 0.0
    #: Per-GPU HBM capacity of the simulated hardware, in GiB (the
    #: :attr:`fits` threshold; infinite when the report was built by hand).
    hbm_capacity_gb: float = math.inf

    @property
    def step_seconds(self) -> float:
        """The step graph's makespan."""
        return self.run.step_end

    @property
    def pipeline_seconds(self) -> float:
        """The pipeline window, from the first compute op to the last
        pipeline-stream op or exposed wait."""
        return self.run.makespan - self.run.start_time

    @property
    def _reduce_scatter_tail(self) -> float:
        """How far the last gradient reduce-scatter runs past the
        pipeline window."""
        return max(self.run.reduce_scatter_end - self.run.makespan, 0.0)

    @property
    def exposed_fsdp_seconds(self) -> float:
        """The head the first parameter all-gather delays the pipeline
        by, plus the reduce-scatter tail past it."""
        return self.run.start_time + self._reduce_scatter_tail

    @property
    def optimizer_seconds(self) -> float:
        """The rest of the step after the reduce-scatter tail."""
        return (self.step_seconds - self.run.makespan
                - self._reduce_scatter_tail)

    @property
    def tflops_per_gpu(self) -> float:
        """Achieved hardware TFLOPs per GPU over the full step."""
        return self.model_flops / self.ngpu / self.step_seconds / 1e12

    @property
    def mfu(self) -> float:
        """Model FLOPs utilization: achieved over peak hardware FLOPs."""
        if self.peak_flops <= 0:
            return 0.0
        return self.tflops_per_gpu * 1e12 / self.peak_flops

    @property
    def tokens_per_second(self) -> float:
        """Training throughput in tokens/s across the whole job."""
        return self.tokens_per_step / self.step_seconds

    @property
    def mean_bubble_ratio(self) -> float:
        return self.run.mean_bubble_ratio

    @property
    def max_peak_memory_gb(self) -> float:
        return max(self.per_rank_peak_memory_gb)

    @property
    def fits(self) -> bool:
        """True when the worst rank's peak memory fits in one GPU's HBM."""
        return self.max_peak_memory_gb <= self.hbm_capacity_gb


def _layer_params_on_rank(
    model: TextModelConfig, parallel: ParallelConfig
) -> float:
    """Per-layer parameters one rank stores: the dense slice over TP plus
    this rank's ``n_experts / ep`` experts (each also TP-sharded) — the
    slice :func:`repro.model.flops.expert_params` defines."""
    dense = layer_params(model) - expert_params(model)
    return (dense + expert_params(model) / parallel.ep) / parallel.tp


def _rank_base_memory(
    model: TextModelConfig,
    parallel: ParallelConfig,
    layout: PipelineLayout,
    ppr: int,
) -> float:
    """Static bytes on one rank: BF16 params, sharded optimizer state, and
    embedding/head weights+grads.  Gradient and activation bytes are
    tracked dynamically by the schedule walker."""
    tp = parallel.tp
    layers = layout.layers_on_rank(ppr)
    params = layers * _layer_params_on_rank(model, parallel)
    base = BF16_BYTES * params
    base += optimizer_state_bytes_per_param() * params / parallel.grad_shard_degree
    stages = layout.stages_of_rank(ppr)
    if any(s.has_embedding for s in stages):
        base += embedding_bytes(model, tp) * 3  # BF16 weights + FP32 grads
    if any(s.has_output_head for s in stages):
        base += output_head_bytes(model, tp) * 3
    return base


def simulate_step(
    model: TextModelConfig,
    parallel: ParallelConfig,
    job: JobConfig,
    cluster: ClusterSpec,
    schedule_kind: str = "flexible",
    nc: Optional[int] = None,
    v: Optional[int] = None,
    recompute: bool = False,
    congestion: float = 1.0,
    mask_fraction: float = 0.5,
    attention_straggler: float = 1.0,
    sim: Optional[Simulator] = None,
    metrics: Optional[MetricsRegistry] = None,
    fault_plan: Optional["FaultPlan"] = None,
    stage_preset: Optional[str] = None,
) -> StepReport:
    """Simulate one optimizer step and report throughput and memory.

    Args:
        model: Architecture (its layer count determines the layout).
        parallel: 5D sizes and ZeRO mode.
        job: Phase hyperparameters.
        cluster: Hardware.
        schedule_kind: Any registered schedule kind
            (:func:`repro.pp.registry.schedule_kinds`); split-backward
            kinds are priced via the cost model's BI/BW split.
        nc: Round size (default: largest divisor of nmb <= pp).
        v: Virtual stages per rank (default: one layer per stage).
        recompute: Activation checkpointing: False, True (full: only each
            layer's input survives), or "selective" (attention internals
            and FFN hidden recomputed; projections' inputs kept).
        congestion: Bandwidth-division factor for network interference.
        mask_fraction: Attention mask density (0.5 = causal).
        attention_straggler: Slowest-over-mean attention ratio from
            document-mask imbalance (Section 7.3.2's 1.44x at 131K).
        sim: Simulator to record the step timeline into (a fresh one by
            default) — hand one in to export a trace afterwards.
        metrics: Registry the interpreter and this function report step
            metrics into (per-rank busy/idle/exposed seconds, bubble
            ratios, exposed FSDP/optimizer gauges, peak memory).
        fault_plan: Declarative faults (:class:`repro.faults.FaultPlan`)
            applied to the lowered graph before execution — the step-graph
            half of the Section 6.1 fault-injection loop.  Perturbed ops
            are tagged ``"faulted"`` in the trace and summarized in
            :attr:`StepReport.fault_injection`.
        stage_preset: Named per-global-stage compute profile from
            :data:`repro.pp.heterogeneity.STAGE_PRESETS` for
            heterogeneous stages (``"mixed-fleet"``, ``"vit-encoder"``).

    The reported decomposition is exact on the timeline:
    ``step_seconds = pipeline_seconds + exposed_fsdp_seconds +
    optimizer_seconds``, where ``exposed_fsdp_seconds`` is the head the
    first parameter all-gather delays the pipeline by plus the tail the
    last gradient reduce-scatter runs past it, and ``optimizer_seconds``
    is the remaining tail to the full makespan.
    """
    pp = parallel.pp
    nmb = job.micro_batches(parallel)
    if v is None:
        v = max(math.ceil(model.n_layers / pp), 1)
        # Kinds with a fixed interleaving (e.g. the v=1 zoo schedules)
        # coerce the *default* v; an explicit v stays the caller's call.
        entry = schedule_entry(schedule_kind)
        if entry.constrain is not None:
            v = entry.constrain(
                ScheduleShape(pp=pp, v=v, nc=default_nc(pp, nmb),
                              nmb=nmb)).v
    layout = build_layout(model.n_layers, pp, v)
    if nc is None:
        nc = default_nc(pp, nmb)
    shape = ScheduleShape(
        pp=pp, v=v, nc=nc, nmb=nmb,
        stage_compute_scale=(None if stage_preset is None
                             else _stage_profile(stage_preset, pp, v)),
    )
    schedule = build_schedule(shape, schedule_kind)

    cost = CostModel(model, parallel, job, cluster,
                     recompute=recompute, congestion=congestion,
                     attention_straggler=attention_straggler,
                     mask_fraction=mask_fraction)

    def stage_params(stage) -> float:
        return stage.n_layers * _layer_params_on_rank(model, parallel)

    graph = lower_step(
        schedule, layout,
        cost.forward_seconds, cost.backward_seconds,
        p2p_seconds=cost.p2p_seconds(),
        backward_input_cost=cost.backward_input_seconds,
        backward_weight_cost=cost.backward_weight_seconds,
        zero=parallel.zero,
        fsdp_allgather_cost=lambda s: cost.fsdp_allgather_seconds(
            stage_params(s)),
        fsdp_reduce_scatter_cost=lambda s: cost.fsdp_reduce_scatter_seconds(
            stage_params(s)),
        optimizer_cost=lambda ppr: cost.optimizer_seconds(
            layout.layers_on_rank(ppr)
            * _layer_params_on_rank(model, parallel)),
    )
    injection: Optional["InjectionReport"] = None
    op_tags = None
    if fault_plan is not None and len(fault_plan):
        # Imported lazily: repro.faults imports this module for goodput.
        from repro.faults.inject import apply_fault_plan
        from repro.parallel.mesh import DeviceMesh

        graph, injection = apply_fault_plan(
            graph, fault_plan, DeviceMesh(parallel))
        op_tags = injection.tags_by_uid
    execution = execute_graph(graph, sim=sim, metrics=metrics,
                              op_tags=op_tags)
    run = summarize_pipeline_execution(execution, schedule,
                                       cost.p2p_seconds())

    # Per-rank peak memory: static base + schedule-tracked dynamic peak.
    act = activation_bytes_per_layer(
        model, seq=job.seq, mbs=job.mbs, tp=parallel.tp, cp=parallel.cp
    )
    if recompute == "selective":
        act_per_layer = act.attn_inputs + act.qkv + act.ffn_inputs
    elif recompute:
        act_per_layer = BF16_BYTES * (job.seq * job.mbs / parallel.cp
                                      / parallel.tp) * model.dim
    else:
        act_per_layer = act.total
    grad_per_layer = FP32_BYTES * _layer_params_on_rank(model, parallel)
    peaks: List[float] = []
    for ppr in range(pp):
        weights = {
            vs: float(stage.n_layers)
            for vs, stage in enumerate(layout.stages_of_rank(ppr))
        }
        timeline = track_memory(
            schedule, ppr, parallel.zero,
            grad_bytes_per_stage=grad_per_layer,
            act_bytes_per_microbatch=act_per_layer,
            shard_degree=parallel.grad_shard_degree,
            stage_weights=weights,
        )
        peaks.append(
            (_rank_base_memory(model, parallel, layout, ppr)
             + timeline.peak_total_bytes) / GIB
        )

    # Useful model FLOPs only: recomputation work does not count toward
    # achieved TFLOPs (the paper's metric improves 17.5% when recompute is
    # turned off, so it is an MFU-style numerator).
    flops = model_step_flops(
        model,
        tokens_per_step=job.tokens_per_step,
        seq=job.seq,
        mask_fraction=mask_fraction,
        recompute=False,
    )

    # MoE routing accounting: the worst injected HotExpert imbalance
    # (1.0 when the router is healthy) sets the dropped-token fraction
    # under the model's capacity factor.
    expert_imbalance = 1.0
    dropped = 0.0
    if model.is_moe:
        if fault_plan is not None:
            expert_imbalance = max(
                [expert_imbalance]
                + [f.imbalance for f in fault_plan
                   if getattr(f, "kind_label", "") == "hot_expert"])
        from repro.train.moe import dropped_token_fraction
        dropped = dropped_token_fraction(
            model.n_experts, model.capacity_factor, expert_imbalance)

    report = StepReport(
        run=run,
        model_flops=flops,
        ngpu=job.ngpu,
        per_rank_peak_memory_gb=tuple(peaks),
        peak_flops=cluster.gpu.peak_flops,
        tokens_per_step=job.tokens_per_step,
        execution=execution,
        fault_injection=injection,
        schedule=schedule.name,
        expert_imbalance=expert_imbalance,
        dropped_token_fraction=dropped,
        hbm_capacity_gb=cluster.gpu.hbm_capacity_gb,
    )
    if metrics is not None:
        rank_map = pp_rank_map(parallel)
        record_simulator_metrics(run, metrics, rank_map=rank_map)
        step_gauges = metrics.gauge(
            "step.seconds", unit="s",
            description="step-time components, by part")
        step_gauges.set(report.step_seconds, part="total")
        step_gauges.set(report.pipeline_seconds, part="pipeline")
        step_gauges.set(report.exposed_fsdp_seconds, part="exposed_fsdp")
        step_gauges.set(report.optimizer_seconds, part="optimizer")
        peak_mem = metrics.gauge(
            "step.peak_memory_gb", unit="GiB",
            description="per-rank peak memory over the step")
        for ppr, gb in enumerate(peaks):
            peak_mem.set_max(gb, rank=rank_map[ppr])
    return report
