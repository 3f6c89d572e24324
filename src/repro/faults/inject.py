"""Fault injection into the lowered step graph.

:mod:`repro.train.lowering` prices every op *before* execution, and the
executor's ranks are pipeline ranks, not global ranks.  So faults apply
as a graph-to-graph rewrite: each fault in a
:class:`~repro.faults.models.FaultPlan` is projected from global ranks
onto the pipeline-rank axis (a fault on global rank ``r`` perturbs the
program of pipeline rank ``mesh.coord_of(r).pp``), every op's duration
goes through :func:`~repro.faults.models.perturb_duration` — the same
applier the synthetic workload uses — and the changed ops are rebuilt
with their perturbed durations.  The executor then runs the perturbed
graph unchanged — fault cost composes with stream overlap and
exposed-wait accounting exactly like healthy cost does.

One deliberate coarsening: the step graph carries one program per
pipeline rank on behalf of the whole (tp, cp, dp) slice, so a fault on
any global rank of a pipeline stage slows that stage's shared program.
That matches how a single straggler behaves in a synchronised slice —
TP/CP/DP peers wait at their next collective — and keeps the rewrite
exact on the timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.faults.models import FaultPlan, make_modifier, perturb_duration
from repro.parallel.mesh import DeviceMesh
from repro.train.lowering import COMPUTE_STREAMS, StepGraph, StepOp


def _sim_kind(op: StepOp) -> str:
    """Simulator event kind the executor will use for this op."""
    return "compute" if op.stream in COMPUTE_STREAMS else "comm"


def _pp_ranks(fault, mesh: DeviceMesh) -> Optional[FrozenSet[int]]:
    """Pipeline ranks a fault's global ranks project onto (None = all)."""
    ranks = fault.affected_ranks(mesh)
    if ranks is None:
        return None
    return frozenset(mesh.coord_of(r).pp for r in ranks)


@dataclass(frozen=True)
class InjectionReport:
    """What a fault-plan rewrite did to a step graph."""

    #: uids of every op whose duration the rewrite changed.
    faulted_uids: FrozenSet[int]
    #: Total seconds added across all perturbed ops (can be negative for
    #: speedup-shaped modifiers; faults in this library only add).
    extra_seconds: float
    #: Perturbed-op count per fault, in plan order (a fault that matched
    #: nothing scores 0 — e.g. a CP link fault on a cp=1 mesh).
    ops_faulted_per_fault: Tuple[int, ...]

    @property
    def ops_faulted(self) -> int:
        return len(self.faulted_uids)

    @property
    def tags_by_uid(self) -> Dict[int, Tuple[str, ...]]:
        """Per-uid trace tags for :func:`repro.train.executor.execute_graph`."""
        return {uid: ("faulted",) for uid in self.faulted_uids}

    def to_dict(self) -> dict:
        return {
            "ops_faulted": self.ops_faulted,
            "extra_seconds": self.extra_seconds,
            "ops_faulted_per_fault": list(self.ops_faulted_per_fault),
        }


def apply_fault_plan(
    graph: StepGraph, plan: FaultPlan, mesh: DeviceMesh,
) -> Tuple[StepGraph, InjectionReport]:
    """Rewrite a step graph with a fault plan's perturbed durations.

    Faults apply in plan order, each seeing the previous one's output
    (:func:`~repro.faults.models.perturb_duration`).  Returns
    the perturbed graph plus an :class:`InjectionReport`; the input graph
    is untouched.
    """
    plan.validate(mesh)
    modifiers = [make_modifier(fault, _pp_ranks(fault, mesh))
                 for fault in plan]

    faulted: set = set()
    per_fault = [0] * len(modifiers)
    extra = 0.0
    programs: List[Tuple[StepOp, ...]] = []
    for prog in graph.programs:
        new_prog: List[StepOp] = []
        for op in prog:
            duration, changed = perturb_duration(
                modifiers, op.rank, op.stream, _sim_kind(op), op.name,
                op.duration)
            for idx in changed:
                per_fault[idx] += 1
            if duration != op.duration:
                faulted.add(op.uid)
                extra += duration - op.duration
                op = op._replace(duration=duration)
            new_prog.append(op)
        programs.append(tuple(new_prog))

    report = InjectionReport(
        faulted_uids=frozenset(faulted),
        extra_seconds=extra,
        ops_faulted_per_fault=tuple(per_fault),
    )
    return StepGraph(programs=tuple(programs)), report


__all__ = ["InjectionReport", "apply_fault_plan"]
