"""FROZEN reference synthetic workload — the engine-driven Figure 8 setup.

The Section 6.1 workload used to apply its fault plan as engine duration
modifiers (``FaultPlan.install``) and to submit its collectives through
the engine's batched ``run_collective``.  Both now live outside the
engine (:func:`repro.debug.workload.join_collective` and
:func:`repro.faults.models.perturb_duration`).  This module keeps the old
path verbatim — ``run_synthetic_workload`` and ``FaultPlan.install``,
driving the frozen :class:`~tests.harness.reference_engine.ReferenceSimulator`
— as the oracle the new workload is compared with event by event
(``tests/harness/test_workload_differential.py``).  Do NOT edit it to
track workload changes.
"""

from __future__ import annotations

from typing import Optional

from repro.debug.workload import WorkloadSpec
from repro.faults.models import FaultPlan, make_modifier
from repro.parallel.mesh import DeviceMesh
from tests.harness.reference_engine import ReferenceSimulator as Simulator


def install(plan: FaultPlan, sim: "Simulator", mesh: "DeviceMesh") -> None:
    """Register every fault as a duration modifier on the simulator."""
    plan.validate(mesh)
    for fault in plan.faults:
        sim.add_duration_modifier(
            make_modifier(fault, fault.affected_ranks(mesh)))


def run_synthetic_workload(
    mesh: DeviceMesh,
    spec: WorkloadSpec = WorkloadSpec(),
    sim: Optional[Simulator] = None,
    faults: Optional["FaultPlan"] = None,
) -> Simulator:
    """Execute the workload and return the recorded trace.

    Args:
        mesh: Device mesh covering every simulated rank.
        spec: Workload shape.
        sim: Simulator to record into.
        faults: Declarative fault plan (:class:`repro.faults.FaultPlan`)
            installed as simulator duration modifiers before the workload
            runs.
    """
    sim = sim or Simulator()
    if faults is not None:
        install(faults, sim, mesh)
    p = mesh.parallel
    world = mesh.world_size
    # The groups are fixed for the whole run, so build them once.  The
    # DP x CP groups stay a set iterated as such: its order is the
    # collectives' submission order, which the trace depends on.
    cp_groups = mesh.all_groups("cp") if p.cp > 1 else []
    tp_groups = mesh.all_groups("tp") if p.tp > 1 else []
    ep_groups = mesh.all_groups("ep") if p.ep > 1 else []
    # Stage hand-off pairs: each rank syncs with its next-stage peer.
    # The pipeline is a chain, not a ring — the last stage has no
    # next-stage peer, so no wrap link back to stage 0 (such a
    # nonexistent edge would let the pp-level blame pass couple the chain
    # ends and misdirect the Section 6.1 search).
    pp_pairs = [
        [rank, mesh.pp_neighbor(rank, +1)] for rank in range(world)
        if mesh.coord_of(rank).pp != p.pp - 1
    ] if p.pp > 1 else []
    dp_groups = {tuple(mesh.dp_cp_group_of(r)) for r in range(world)}

    for step in range(spec.steps):
        for layer in range(spec.layers):
            for rank in range(world):
                sim.run(
                    rank=rank,
                    stream="compute",
                    duration=spec.compute_seconds,
                    name=f"compute:s{step}:l{layer}",
                    kind="compute",
                )
            # CP's KV all-gather feeds attention, then TP collectives wrap
            # the block — so CP precedes TP within a layer.  This ordering
            # is what creates Figure 8's decoy: a rank waiting on its CP
            # peer joins the following TP collective late and *looks* like
            # the TP-group bottleneck.
            for group in cp_groups:
                sim.run_collective(
                    group, stream="compute",
                    duration=spec.cp_comm_seconds,
                    name=f"cp:kv-ag:s{step}:l{layer}",
                )
            for group in tp_groups:
                sim.run_collective(
                    group, stream="compute",
                    duration=spec.tp_comm_seconds,
                    name=f"tp:ag:s{step}:l{layer}",
                )
            # The expert FFN sits after attention, so the EP token
            # all-to-all (dispatch + combine folded into one event)
            # closes the layer.
            for group in ep_groups:
                sim.run_collective(
                    group, stream="compute",
                    duration=spec.ep_comm_seconds,
                    name=f"ep:a2a:s{step}:l{layer}",
                )
        for pair in pp_pairs:
            sim.run_collective(
                pair, stream="compute",
                duration=spec.pp_comm_seconds,
                name=f"pp:p2p:s{step}",
            )
        for group in dp_groups:
            if len(group) > 1:
                sim.run_collective(
                    list(group), stream="compute",
                    duration=spec.dp_comm_seconds,
                    name=f"dp:grad-rs:s{step}",
                )
    return sim
