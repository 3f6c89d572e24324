"""Multi-phase pre-training planning (Section 2.2's flexibility story).

Llama 3 pre-training runs several phases with different hyperparameters —
GPU count, global batch size, and sequence length all *change between
phases* — which is exactly why the PP schedule must accept arbitrary batch
sizes and why CP slots in for the long-context phase.  This module chains
the Section 5 planner across a phase list and reports the resulting
configurations and simulated throughput, reproducing the production
progression: ramping batch/GPU counts in short context, then 4D
parallelism for long context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from typing import TYPE_CHECKING

from repro.hardware.cluster import ClusterSpec
from repro.model.config import TextModelConfig
from repro.parallel.config import JobConfig

if TYPE_CHECKING:  # typing only — avoids a package import cycle
    from repro.parallel.planner import Plan
    from repro.train.step import StepReport


@dataclass(frozen=True)
class TrainingPhase:
    """One pre-training phase.

    Attributes:
        name: Human-readable phase name.
        job: GPU count / batch / sequence hyperparameters.
        mask_fraction: Attention mask density (0.5 causal; lower for
            document-heavy long-context corpora).
        attention_straggler: Document-mask straggler factor (Section
            7.3.2) applied during simulation.
    """

    name: str
    job: JobConfig
    mask_fraction: float = 0.5
    attention_straggler: float = 1.0


#: The Llama 3 405B production progression (Section 2.2 / Table 2): batch
#: and cluster ramp during short-context, then the long-context phase
#: keeps the 16M-token budget while sequence length grows 16x.
LLAMA3_405B_PHASES: Tuple[TrainingPhase, ...] = (
    TrainingPhase("short-context ramp-up",
                  JobConfig(seq=8192, gbs=1024, ngpu=8192)),
    TrainingPhase("short-context main",
                  JobConfig(seq=8192, gbs=2048, ngpu=16384)),
    TrainingPhase("long-context",
                  JobConfig(seq=131072, gbs=128, ngpu=16384),
                  attention_straggler=1.44),
)


@dataclass(frozen=True)
class PhaseReport:
    """Planner + simulation outcome for one phase."""

    phase: TrainingPhase
    plan: "Plan"
    tflops_per_gpu: float
    step_seconds: float
    bubble_ratio: float
    max_memory_gb: float
    #: Full step simulation (carries the pipeline timeline for tracing).
    step: "StepReport" = None  # type: ignore[assignment]


def phases_by_name(names: List[str]) -> Tuple[TrainingPhase, ...]:
    """Select phases of :data:`LLAMA3_405B_PHASES` by name, in the
    requested order.

    Raises ``KeyError`` naming the offender and the valid choices when a
    requested phase does not exist.
    """
    known = {p.name: p for p in LLAMA3_405B_PHASES}
    selected = []
    for name in names:
        if name not in known:
            raise KeyError(
                f"unknown phase {name!r}; choose from {sorted(known)}"
            )
        selected.append(known[name])
    return tuple(selected)


def plan_pretraining(
    model: TextModelConfig,
    cluster: ClusterSpec,
    phases: Tuple[TrainingPhase, ...] = LLAMA3_405B_PHASES,
) -> List[PhaseReport]:
    """Plan and simulate every phase in order.

    Each phase gets its own parallelism configuration from the planner —
    the point being that nothing but hyperparameters changes between
    phases; the flexible schedule and CP absorb the rest.  Each phase's
    pipeline timeline is kept on its report (``.step.run.sim``) so the
    whole progression can be exported as one merged trace.
    """
    from repro.parallel.planner import plan_parallelism
    from repro.train.step import simulate_step

    reports = []
    for phase in phases:
        plan = plan_parallelism(model, phase.job, cluster)
        rep = simulate_step(
            model, plan.parallel, phase.job, cluster,
            schedule_kind="flexible", v=plan.virtual_stages,
            mask_fraction=phase.mask_fraction,
            attention_straggler=phase.attention_straggler,
        )
        reports.append(
            PhaseReport(
                phase=phase,
                plan=plan,
                tflops_per_gpu=rep.tflops_per_gpu,
                step_seconds=rep.step_seconds,
                bubble_ratio=rep.mean_bubble_ratio,
                max_memory_gb=rep.max_peak_memory_gb,
                step=rep,
            )
        )
    return reports


def describe_pretraining(reports: List[PhaseReport]) -> str:
    """Multi-line summary table of a phase plan."""
    lines = []
    for r in reports:
        p = r.plan.parallel
        lines.append(
            f"{r.phase.name:24s} seq={r.phase.job.seq:<7d} "
            f"gbs={r.phase.job.gbs:<5d} ngpu={r.phase.job.ngpu:<6d} "
            f"-> tp{p.tp}/cp{p.cp}/pp{p.pp}/dp{p.dp} "
            f"({r.plan.schedule}), {r.tflops_per_gpu:.0f} TFLOPs/GPU, "
            f"{r.max_memory_gb:.0f} GiB"
        )
    return "\n".join(lines)
