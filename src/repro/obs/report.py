"""Machine-readable run reports with a stable schema.

Every builder returns a plain JSON-able dict whose first key is
``"schema"`` — a ``repro.<what>/v<N>`` tag that only changes when a field
is renamed or removed (adding fields is backwards-compatible).  These are
the payloads behind the CLI ``--json`` flags and the format future
regression tracking in ``benchmarks/`` diffs against.

The step report folds in the metrics-registry view: per-rank busy/idle/
exposed-comm seconds and bubble ratios, rolled up per (dp, pp, ep, cp,
tp) group index through the :class:`repro.parallel.mesh.DeviceMesh` — the
pipeline executor's ranks are PP ranks, mapped onto the mesh's pp axis at
(tp, cp, dp) = 0.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.faults.goodput import GoodputReport
    from repro.resilience.run import RunResult
    from repro.verify.campaign import CampaignResult
    from repro.verify.oracles import OracleResult

import numpy as np

from repro.cp.imbalance import FleetImbalanceReport
from repro.debug.trace_analysis import SlowRankReport
from repro.obs.metrics import (
    MetricsRegistry,
    pp_rank_map,
    record_simulator_metrics,
)
from repro.parallel.config import JobConfig, ParallelConfig
from repro.parallel.mesh import DIM_ORDER, DeviceMesh
from repro.parallel.planner import Plan
from repro.train.phases import PhaseReport
from repro.train.step import StepReport

#: Bumped when any report's existing fields change shape or meaning.
#: v2: step busy became compute-only (comm reported separately per kind),
#: and step time became the executed timeline's makespan.
SCHEMA_VERSION = 2


def _schema(name: str) -> str:
    return f"repro.{name}/v{SCHEMA_VERSION}"


def _parallel_dict(parallel: ParallelConfig) -> dict:
    return {
        "tp": parallel.tp,
        "cp": parallel.cp,
        "ep": parallel.ep,
        "pp": parallel.pp,
        "dp": parallel.dp,
        "zero": parallel.zero.value,
        "world_size": parallel.world_size,
    }


def _job_dict(job: JobConfig) -> dict:
    return {
        "seq": job.seq,
        "gbs": job.gbs,
        "ngpu": job.ngpu,
        "mbs": job.mbs,
        "tokens_per_step": job.tokens_per_step,
    }


def plan_report(plan: Plan) -> dict:
    """The Section 5 planner outcome plus its reasoning trail."""
    return {
        "schema": _schema("plan"),
        "parallel": _parallel_dict(plan.parallel),
        "job": _job_dict(plan.job),
        "bs": plan.bs,
        "virtual_stages": plan.virtual_stages,
        "schedule": plan.schedule,
        "estimated_rank0_memory_gb": plan.estimated_rank0_memory_gb,
        "rationale": list(plan.rationale),
        "candidates": [c.to_dict() for c in plan.candidates],
    }


def step_group_metrics(
    rep: StepReport,
    parallel: ParallelConfig,
    registry: Optional[MetricsRegistry] = None,
) -> dict:
    """Per-(dp, pp, ep, cp, tp)-group aggregates of a simulated step.

    Records the step's pipeline timeline into a registry (unless an
    already-populated one is handed in) and rolls busy/idle/exposed-comm
    seconds (sum) and bubble ratio (mean) up each mesh dimension.
    """
    if registry is None or "sim.busy_seconds" not in registry:
        registry = record_simulator_metrics(
            rep.run.sim, registry, rank_map=pp_rank_map(parallel))
    mesh = DeviceMesh(parallel)
    out: dict = {}
    for name, reduce in (
        ("sim.busy_seconds", "sum"),
        ("sim.idle_seconds", "sum"),
        ("sim.exposed_comm_seconds", "sum"),
        ("sim.bubble_ratio", "mean"),
    ):
        short = name.removeprefix("sim.")
        out[short] = {
            dim: {str(i): v for i, v in
                  registry.aggregate_by_coord(name, mesh, dim, reduce).items()}
            for dim in DIM_ORDER
        }
    return out


def step_report(
    rep: StepReport,
    parallel: ParallelConfig,
    job: JobConfig,
    registry: Optional[MetricsRegistry] = None,
) -> dict:
    """One simulated optimizer step: headline numbers, per-rank detail,
    and mesh-group metric aggregates."""
    return {
        "schema": _schema("step"),
        "parallel": _parallel_dict(parallel),
        "job": _job_dict(job),
        "schedule": rep.schedule,
        "step_seconds": rep.step_seconds,
        "pipeline_seconds": rep.pipeline_seconds,
        "exposed_fsdp_seconds": rep.exposed_fsdp_seconds,
        "optimizer_seconds": rep.optimizer_seconds,
        "tflops_per_gpu": rep.tflops_per_gpu,
        "mfu": rep.mfu,
        "tokens_per_second": rep.tokens_per_second,
        "model_flops": rep.model_flops,
        "mean_bubble_ratio": rep.mean_bubble_ratio,
        "bubble_ratios": list(rep.run.bubble_ratios),
        "per_rank_busy_seconds": list(rep.run.per_rank_busy),
        "per_rank_comm_seconds": [
            dict(sorted(d.items())) for d in (rep.run.per_rank_comm or ())
        ],
        "per_rank_peak_memory_gb": list(rep.per_rank_peak_memory_gb),
        "max_peak_memory_gb": rep.max_peak_memory_gb,
        "hbm_capacity_gb": rep.hbm_capacity_gb,
        "fits": rep.fits,
        "expert_imbalance": rep.expert_imbalance,
        "dropped_token_fraction": rep.dropped_token_fraction,
        "groups": step_group_metrics(rep, parallel, registry),
    }


def phases_report(reports: Sequence[PhaseReport]) -> dict:
    """The pre-training progression (Section 2.2 / Table 2)."""
    return {
        "schema": _schema("phases"),
        "phases": [
            {
                "name": r.phase.name,
                "job": _job_dict(r.phase.job),
                "mask_fraction": r.phase.mask_fraction,
                "attention_straggler": r.phase.attention_straggler,
                "parallel": _parallel_dict(r.plan.parallel),
                "schedule": r.plan.schedule,
                "tflops_per_gpu": r.tflops_per_gpu,
                "step_seconds": r.step_seconds,
                "bubble_ratio": r.bubble_ratio,
                "max_memory_gb": r.max_memory_gb,
            }
            for r in reports
        ],
    }


def _array_summary(a: np.ndarray) -> dict:
    return {
        "min": float(a.min()),
        "max": float(a.max()),
        "mean": float(a.mean()),
    }


def imbalance_report(rep: FleetImbalanceReport) -> dict:
    """Figure 14 fleet-imbalance statistics."""
    return {
        "schema": _schema("imbalance"),
        "n_gpus": int(rep.compute_seconds.size),
        "elapsed_seconds": rep.elapsed_seconds,
        "slowest_over_fastest_compute": rep.slowest_over_fastest_compute,
        "slowest_over_fastest_attention": rep.slowest_over_fastest_attention,
        "cp_exposed_fraction": rep.cp_exposed_fraction,
        "waiting_fraction_of_exposed": rep.waiting_fraction_of_exposed,
        "overlap_headroom": rep.overlap_headroom,
        "attention_seconds": _array_summary(rep.attention_seconds),
        "compute_seconds": _array_summary(rep.compute_seconds),
        "exposed_cp_seconds": _array_summary(rep.exposed_cp_seconds),
        "wait_seconds": _array_summary(rep.wait_seconds),
    }


def slow_rank_report(rep: SlowRankReport) -> dict:
    """The Section 6.1 top-down search outcome, decisions as structured
    events (one per narrowing level, in search order)."""
    return {
        "schema": _schema("slow_rank"),
        "slow_rank": rep.slow_rank,
        "attribution": rep.attribution,
        "compute_excess_seconds": rep.compute_excess_seconds,
        "decisions": [
            {
                "event": "slow_rank.decision",
                "dim": d.dim,
                "chosen_index": d.chosen_index,
                "blame_seconds": d.blame_seconds,
                "candidates_before": d.candidates_before,
                "candidates_after": d.candidates_after,
            }
            for d in rep.decisions
        ],
    }


def faults_report(gp: "GoodputReport", parallel: ParallelConfig,
                  job: JobConfig) -> dict:
    """Goodput and detection outcome of one fault-injected step (the
    Section 6.1 loop closed): effective throughput vs. the healthy
    baseline, per-stream exposed-comm delta, and whether the top-down
    search localised the injected fault."""

    def _step_dict(rep) -> dict:
        return {
            "step_seconds": rep.step_seconds,
            "tokens_per_second": rep.tokens_per_second,
            "tflops_per_gpu": rep.tflops_per_gpu,
            "mfu": rep.mfu,
            "exposed_fsdp_seconds": rep.exposed_fsdp_seconds,
        }

    return {
        "schema": _schema("faults"),
        "parallel": _parallel_dict(parallel),
        "job": _job_dict(job),
        "plan": gp.plan.describe(),
        "faults": gp.plan.to_dicts(),
        "injection": gp.injection.to_dict(),
        "healthy": _step_dict(gp.healthy),
        "faulted": _step_dict(gp.faulted),
        "goodput": {
            "fraction": gp.goodput_fraction,
            "step_time_inflation": gp.step_time_inflation,
        },
        "exposed_comm_delta_seconds": dict(
            sorted(gp.exposed_comm_delta_seconds.items())),
        "detection": (gp.detection.to_dict()
                      if gp.detection is not None else None),
    }


def resilience_report(result: "RunResult") -> dict:
    """Goodput-over-wallclock outcome of one multi-step resilient run.

    Schema ``repro.resilience/v2`` is pinned independently of the global
    :data:`SCHEMA_VERSION`: the resilience subsystem's golden
    (``tests/golden/resilience_run.json``) byte-compares this builder's
    output, so the tag only moves when *these* fields change shape — not
    when the step/plan reports evolve.  v2 added the failure taxonomy,
    tiered checkpointing (per-tier intervals, write counts, restore
    choices), and the detect–mitigate decision log; a legacy iid/
    fail-stop/remote-only config reproduces every v1 number exactly
    (pinned by ``tests/golden/resilience_run_v1.json``).
    """
    cfg = result.config
    return {
        "schema": "repro.resilience/v2",
        "parallel": _parallel_dict(result.initial_plan.parallel),
        "job": _job_dict(result.initial_plan.job),
        "config": {
            "steps": cfg.steps,
            "mtbf_seconds": cfg.mtbf_seconds,
            "seed": cfg.seed,
            "elastic": cfg.elastic,
            "replacement_seconds": cfg.replacement_seconds,
            "restart_overhead_seconds": cfg.restart_overhead_seconds,
            "node_loss_fraction": cfg.node_loss_fraction,
            "retry_fraction": cfg.retry_fraction,
            "retry_success_p": cfg.retry_success_p,
            "retry_policy": cfg.retry_policy.to_dict(),
            "taxonomy": cfg.effective_taxonomy.to_dict(),
            "mitigation": cfg.mitigation,
            "detector": cfg.detector.to_dict(),
        },
        "policy": dict(cfg.policy.to_dict(),
                       description=cfg.policy.describe()),
        "interval_steps": result.interval_steps,
        "tier_intervals": dict(sorted(result.tier_intervals.items())),
        "tier_writes": dict(sorted(result.tier_writes.items())),
        "ideal_step_seconds": result.ideal_step_seconds,
        "ideal_seconds": result.ideal_seconds,
        "elapsed_seconds": result.elapsed_seconds,
        "steps_completed": result.steps_completed,
        "completed": result.completed,
        "truncated_reason": result.truncated_reason,
        "goodput": {
            "fraction": result.goodput_fraction,
            "tokens_per_step": result.tokens_per_step,
            "achieved_tokens": result.achieved_tokens,
            "ideal_tokens": result.ideal_tokens,
            "tokens_per_second": result.tokens_per_second,
        },
        "buckets_seconds": dict(result.buckets),
        "counters": dict(result.counters),
        "failures": [dict(f) for f in result.failures],
        "segments": [dict(s) for s in result.segments],
        "restores": [dict(r) for r in result.restores],
        "mitigations": [dict(m) for m in result.mitigations],
    }


def survivability_report(model=None, cluster=None, ngpu: int = 0) -> dict:
    """The failure-domain × checkpoint-tier survivability matrix, plus —
    when a (model, cluster, ngpu) scenario is given — the per-tier
    write/read pricing that matrix trades against.

    Schema ``repro.survivability/v1``: pinned byte-stable by
    ``tests/golden/resilience_survivability.json``.
    """
    from repro.resilience.tiers import (
        survivability_matrix,
        tier_read_seconds,
        tier_write_seconds,
        TIER_NAMES,
    )

    out: dict = {
        "schema": "repro.survivability/v1",
        "survivability": survivability_matrix(),
    }
    if model is not None and cluster is not None and ngpu > 0:
        out["scenario"] = {
            "ngpu": ngpu,
            "tier_write_seconds": {
                tier: tier_write_seconds(tier, model, cluster, ngpu)
                for tier in TIER_NAMES},
            "tier_read_seconds": {
                tier: tier_read_seconds(tier, model, cluster, ngpu)
                for tier in TIER_NAMES},
        }
    return out


def analysis_report(
    parallel: Optional[ParallelConfig] = None,
    job: Optional[JobConfig] = None,
    critical_path=None,
    diff=None,
    ingest=None,
    top: int = 10,
    blame_threshold: float = 0.05,
) -> dict:
    """Trace-analytics outcome: critical path, run diff, or ingestion.

    Schema ``repro.analysis/v1`` is pinned independently of the global
    :data:`SCHEMA_VERSION` (same convention as ``repro.resilience/v2``):
    the analytics subsystem shipped against v1 and its golden
    (``tests/golden/analysis_step.json``) byte-compares this builder's
    output.  Sections are present only when their analysis ran:
    ``critical_path`` (a
    :class:`repro.analysis.critical_path.CriticalPathReport`), ``diff``
    (a :class:`repro.analysis.diff.TraceDiff`), and ``ingest`` (a
    :class:`repro.analysis.streaming.StreamingTraceAggregator`).
    """
    out: dict = {"schema": "repro.analysis/v1"}
    if parallel is not None:
        out["parallel"] = _parallel_dict(parallel)
    if job is not None:
        out["job"] = _job_dict(job)
    if critical_path is not None:
        out["critical_path"] = critical_path.to_dict(top=top)
    if diff is not None:
        out["diff"] = diff.to_dict(top=top, threshold=blame_threshold)
    if ingest is not None:
        out["ingest"] = ingest.to_dict()
    return out


def verify_report(
    fuzz: Optional["CampaignResult"],
    oracles: Sequence["OracleResult"] = (),
    step_invariants: Optional[dict] = None,
    fault_fuzz: Optional["CampaignResult"] = None,
    engine_fuzz: Optional["CampaignResult"] = None,
    resilience_fuzz: Optional["CampaignResult"] = None,
) -> dict:
    """The verification subsystem's outcome (Section 6.2 methodology).

    ``ok`` aggregates the fuzz campaign (schedule-property,
    fault-randomizing, engine-differential, and/or resilience
    taxonomy-sampling), every oracle, and (when run) the step-graph
    timeline invariants; each fuzz failure carries its minimal shrunk
    reproducer, so re-running ``repro verify --seed <seed>`` (or
    building the shrunk config directly) reproduces the finding.  Any
    fuzz campaign may be omitted (None); its key is then absent.
    """
    oracle_dicts = [o.to_dict() for o in oracles]
    ok = all(o["ok"] for o in oracle_dicts)
    if fuzz is not None:
        ok = ok and fuzz.ok
    if fault_fuzz is not None:
        ok = ok and fault_fuzz.ok
    if engine_fuzz is not None:
        ok = ok and engine_fuzz.ok
    if resilience_fuzz is not None:
        ok = ok and resilience_fuzz.ok
    if step_invariants is not None:
        ok = ok and step_invariants.get("ok", False)
    out = {
        "schema": _schema("verify"),
        "ok": ok,
        "oracles": oracle_dicts,
    }
    if fuzz is not None:
        out["fuzz"] = fuzz.to_dict()
    if fault_fuzz is not None:
        out["fault_fuzz"] = fault_fuzz.to_dict()
    if engine_fuzz is not None:
        out["engine_fuzz"] = engine_fuzz.to_dict()
    if resilience_fuzz is not None:
        out["resilience_fuzz"] = resilience_fuzz.to_dict()
    if step_invariants is not None:
        out["step_invariants"] = step_invariants
    return out


def render_json(report: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent."""
    return json.dumps(report, indent=2, sort_keys=True)
