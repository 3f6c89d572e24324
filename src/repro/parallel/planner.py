"""The Section 5 parallelism planner.

Given a model, a training phase (GPU count, global token budget, sequence
length) and a cluster, derive the sizes of the four parallelism dimensions
the way Section 5.1 does:

1. **TP** — the smallest power of two that keeps ``bs >= 1`` given the
   batch-size constraint, capped at the node size so TP stays on NVLink.
2. **2D vs 3D** — reject 2D (ZeRO-3 + TP) when the per-token arithmetic
   intensity over FSDP communication is far below the hardware
   FLOPs-to-bandwidth ratio (the paper's 8K-token example: 8K FLOPs/byte
   vs ~19.78K).
3. **PP** — the smallest power of two whose per-rank memory estimate fits
   in HBM with headroom.
4. **CP** — the smallest power of two that restores ``bs >= pp`` for long
   sequences; DP is what CP replaces (TP and PP cannot shrink).
5. **ZeRO mode / schedule** — ZeRO-1 + 1F1B when ``bs >= 2 * pp``, else
   ZeRO-2 + all-forward-all-backward (Section 3.1.3).

For MoE models **EP** is a planning axis: every power-of-two divisor of
the expert count joins the (tp, pp) search, and the cost-aware ranking
decides on the simulated timeline whether slicing experts (TP) or
spreading whole experts (EP, paying the token all-to-all) wins.  The
enumeration, derivation, gates and ranking live in
:mod:`repro.parallel.search`.

The planner records its reasoning as human-readable rationale lines so the
Table 2 benchmark can show *why* each number came out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.errors import ConfigError
from repro.hardware.cluster import ClusterSpec
from repro.model.config import TextModelConfig
from repro.parallel import search
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage
from repro.parallel.search import Candidate, rank0_memory_gb
from repro.pp.registry import schedule_entry

#: Fraction of HBM the planner is willing to fill (the rest is reserve for
#: fragmentation, NCCL buffers, and CUDA context).
MEMORY_HEADROOM = 0.90


@dataclass(frozen=True)
class Plan:
    """Planner output: chosen sizes plus the reasoning trail."""

    parallel: ParallelConfig
    job: JobConfig
    bs: int
    virtual_stages: int
    schedule: str  # a registered schedule kind ("1f1b", "afab", ...)
    estimated_rank0_memory_gb: float
    rationale: List[str] = field(default_factory=list)
    #: ``cost_aware=True`` only: every (tp, pp[, ep][, kind]) candidate
    #: of :func:`repro.parallel.search.sweep`, best first.
    candidates: List[Candidate] = field(default_factory=list)

    def describe(self) -> str:
        lines = [self.parallel.describe(), f"bs={self.bs} schedule={self.schedule}"]
        lines.extend(f"  - {r}" for r in self.rationale)
        return "\n".join(lines)


def arithmetic_intensity_2d(seq: int, dtype_bytes: int = 2) -> float:
    """FLOPs per FSDP-ZeRO-3 communication byte at batch size 1 (Section
    5.1): each parameter costs ``dtype_bytes`` on the wire and contributes
    2 FLOPs per token in forward."""
    return 2.0 * seq / dtype_bytes


def hardware_flops_per_byte(cluster: ClusterSpec) -> float:
    """Peak compute over per-rank inter-node bandwidth — the ratio 2D
    parallelism must beat to hide FSDP communication (989K / 50 for the
    production cluster)."""
    return cluster.gpu.peak_flops / cluster.inter_node_bandwidth()


def plan_parallelism(
    model: TextModelConfig,
    job: JobConfig,
    cluster: ClusterSpec,
    max_pp: int = 64,
    cost_aware: bool = False,
    schedule_kind: Optional[str] = None,
) -> Plan:
    """Derive the 4D parallelism configuration for a training phase.

    Reproduces Table 2: for the 405B model on 16,384 GPUs it returns
    (tp=8, cp=1, pp=16, dp=128) at seq 8K / gbs 2048, and
    (tp=8, cp=16, pp=16, dp=8) at seq 131K / gbs 128.

    With ``cost_aware=True``, :func:`repro.parallel.search.sweep`
    simulates every (tp, pp[, ep]) point that passes the same analytic
    memory gate and the feasible one with the highest TFLOPs/GPU wins;
    every candidate, with its reason if infeasible, lands in
    ``Plan.candidates``.

    ``schedule_kind`` adds the schedule as a planning axis: a registered
    kind pins what cost-aware candidates simulate under, and ``"all"``
    sweeps every registered kind per (tp, pp) pair so the ranking can
    trade pipeline depth against schedule shape.  The analytic (non
    cost-aware) derivation is schedule-independent, so Table 2 is
    reproduced unchanged for any pinned kind.

    Raises :class:`~repro.errors.ConfigError` when no layout fits.
    """
    if job.ngpu > cluster.num_gpus:
        raise ConfigError(
            f"job wants {job.ngpu} GPUs but cluster has {cluster.num_gpus}"
        )
    if schedule_kind is not None and schedule_kind != "all":
        schedule_entry(schedule_kind)  # raises on unknown kinds
    rationale: List[str] = []

    # --- Step 1: TP (the batch-minimal power of two, capped at a node) --
    node = cluster.gpus_per_node
    tp_min = search.min_tp(job, cluster)

    # --- Step 2: 2D vs 3D --------------------------------------------
    ai = arithmetic_intensity_2d(job.seq)
    hw = hardware_flops_per_byte(cluster)
    use_3d = ai < hw
    if use_3d:
        rationale.append(
            f"3D over 2D: arithmetic intensity {ai:,.0f} FLOPs/byte < "
            f"hardware ratio {hw:,.0f}; FSDP ZeRO-3 comm cannot hide "
            "(Section 5.1)"
        )
    else:
        rationale.append(
            f"2D viable: arithmetic intensity {ai:,.0f} >= hardware ratio "
            f"{hw:,.0f}"
        )

    # --- Step 3: TP and PP (and EP for MoE) to fit memory --------------
    # Deepen PP, then escalate TP toward the node size; MoE models also
    # spread whole experts over EP, which divides the expert weights the
    # way deeper PP divides the layers.
    capacity = cluster.gpu.hbm_capacity_gb * MEMORY_HEADROOM
    tp, pp, ep, mem_gb = search.first_fit(model, job, cluster, max_pp,
                                          capacity)
    if ep > 1:
        rationale.append(
            f"ep={ep}: {model.n_experts} experts overflow HBM replicated; "
            f"spreading {model.n_experts // ep} per rank over EP fits "
            "(paying the token all-to-all)"
        )
    rationale.insert(0, (
        f"tp={tp}: batch constraint needs tp*cp >= ngpu/gbs = "
        f"{job.ngpu / job.gbs:.0f} (minimum tp={tp_min}); tp capped at "
        f"node size {node} to keep TP on NVLink, escalated as needed to "
        "fit memory (Section 5.1)"
    ))
    rationale.append(
        f"pp={pp}: first power of two where rank-0 peak "
        f"{mem_gb:.1f} GiB fits in {capacity:.0f} GiB usable HBM"
    )
    v = math.ceil(model.n_layers / pp)

    # --- Step 4: CP to restore bs >= pp -------------------------------
    cp, dp, bs = search.sizes(job, tp, pp, ep)
    if cp > 1:
        rationale.append(
            f"cp={cp}: long-context gbs={job.gbs} leaves bs < pp without "
            f"CP; cp >= ngpu/(gbs*tp) = {job.ngpu / (job.gbs * tp):.0f} "
            "restores bs >= pp by replacing DP (Section 5.1)"
        )
    else:
        rationale.append("cp=1: gbs is large enough that bs >= pp without CP")
    if dp is None:
        raise ConfigError(f"ngpu={job.ngpu} not divisible by tp*cp*ep*pp "
                          f"= {tp * cp * ep * pp}")

    # --- Step 5: ZeRO mode and schedule (Section 3.1.3) ----------------
    zero, schedule = search.family_pick(bs, pp)
    if zero is ZeroStage.ZERO_1:
        rationale.append(
            f"ZeRO-1 + 1F1B: bs={bs} >= 2*pp={2 * pp}; keep gradients "
            "unsharded to avoid reduce-scatter traffic (Section 3.1.3)"
        )
    else:
        rationale.append(
            f"ZeRO-2 + all-forward-all-backward: bs={bs} < 2*pp={2 * pp}; "
            "reshard gradients to save memory (Section 3.1.3)"
        )

    parallel = ParallelConfig(tp=tp, cp=cp, ep=ep, pp=pp, dp=dp, zero=zero)
    nmb = bs // job.mbs
    plan = Plan(
        parallel=parallel,
        job=job,
        bs=bs,
        virtual_stages=v,
        schedule=schedule,
        estimated_rank0_memory_gb=rank0_memory_gb(model, parallel, job, v, nmb),
        rationale=rationale,
    )
    if not cost_aware:
        return plan

    # --- Cost-aware re-ranking: simulated throughput picks the winner --
    candidates = search.sweep(model, job, cluster, max_pp, capacity,
                              schedule_kind)
    feasible = [c for c in candidates if c.feasible]
    if not feasible:
        return replace(plan, candidates=candidates, rationale=rationale + [
            "cost-aware: no candidate survived memory and simulation; "
            "keeping the first-fit plan"])
    best = feasible[0]
    nmb = max(best.bs // job.mbs, 1)
    return replace(
        plan, parallel=best.parallel, bs=best.bs, virtual_stages=best.v,
        schedule=best.kind,
        estimated_rank0_memory_gb=rank0_memory_gb(
            model, best.parallel, job, best.v, nmb),
        rationale=rationale + [
            f"cost-aware: tp={best.tp} pp={best.pp}"
            + (f" ep={best.ep}" if best.ep > 1 else "")
            + f" schedule={best.kind} wins at "
            f"{best.tflops_per_gpu:.0f} TFLOPs/GPU over "
            f"{len(feasible)} feasible of {len(candidates)} candidates"],
        candidates=candidates)


def replan_for_gpu_count(
    model: TextModelConfig,
    job: JobConfig,
    cluster: ClusterSpec,
    max_ngpu: int,
    max_pp: int = 64,
    cost_aware: bool = False,
) -> Plan:
    """Replan after permanent capacity loss: the elastic-restart path.

    Finds the largest node-aligned GPU count ``<= max_ngpu`` for which
    Section 5.1 yields a schedulable plan, stepping down one node at a
    time past counts the divisibility constraints reject (e.g. a gbs the
    shrunken dp no longer divides).  The job keeps its gbs and sequence
    length — the paper's phases fix the token budget per step, so losing
    nodes shows up as a slower step, not a smaller batch.

    Raises ``ValueError`` when no node-aligned count down to one node
    admits a plan.
    """
    node = cluster.gpus_per_node
    for ngpu in range(max_ngpu - max_ngpu % node, 0, -node):
        shrunk_job = replace(job, ngpu=ngpu)
        shrunk_cluster = replace(cluster, num_nodes=ngpu // node)
        try:
            plan = plan_parallelism(model, shrunk_job, shrunk_cluster,
                                    max_pp=max_pp, cost_aware=cost_aware)
            # A plan is only usable if the schedule can actually split
            # the batch into whole micro-batches.
            shrunk_job.micro_batches(plan.parallel)
        except ValueError:
            continue
        return plan
    raise ValueError(
        f"no feasible plan at or below {max_ngpu} GPUs "
        f"({node} per node) for this job")
