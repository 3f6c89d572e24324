"""Synthetic 5D-parallel workload with fault injection (the Figure 8 setup).

Runs a few training-step-shaped iterations over a full device mesh: per
layer, every rank computes, then its TP group all-gathers, then its CP
group gathers KV, then (when ``ep > 1``) its EP group trades expert
tokens in an all-to-all; per step the DP x CP group reduce-scatters
gradients and PP neighbours exchange activations.  Faults enter through a
:class:`repro.faults.FaultPlan` — e.g. a
:class:`~repro.faults.ComputeStraggler` adding seconds to every compute
op of one rank (a flaky GPU, deterministic-DVFS violation, or thermal
throttle) — and the resulting trace is what
:func:`repro.debug.trace_analysis.identify_slow_rank` diagnoses.

Every event's duration goes through the plan's modifiers
(:func:`repro.faults.models.perturb_duration`) before it is submitted,
and every collective goes through :func:`join_collective`, which times
the join itself and records one event per participant.

This reproduces the paper's example: with (cp=2, tp=4) on 8 GPUs, slowing
rank 6 makes rank 2 look like the TP-group bottleneck, but the top-down
search correctly walks CP first and lands on rank 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import ConfigError
from repro.parallel.mesh import DeviceMesh
from repro.sim.engine import Simulator, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids a cycle)
    from repro.faults.models import DurationModifier, FaultPlan

_FAULTED = ("faulted",)


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of the synthetic workload.

    Attributes:
        steps: Training steps to simulate.
        layers: Layers per step (each layer = compute + TP + CP comm).
        compute_seconds: Per-layer compute time on a healthy rank.
        tp_comm_seconds: TP all-gather/reduce-scatter time per layer.
        cp_comm_seconds: CP KV-gather time per layer (skipped when cp=1).
        ep_comm_seconds: EP dispatch/combine all-to-all time per layer
            (skipped when ep=1).
        pp_comm_seconds: Inter-stage P2P per step (skipped when pp=1).
        dp_comm_seconds: Gradient reduce-scatter per step (skipped when
            the DP x CP group is trivial).
    """

    steps: int = 3
    layers: int = 4
    compute_seconds: float = 1.0
    tp_comm_seconds: float = 0.1
    cp_comm_seconds: float = 0.15
    ep_comm_seconds: float = 0.12
    pp_comm_seconds: float = 0.05
    dp_comm_seconds: float = 0.3

    def __post_init__(self) -> None:
        if self.steps < 1 or self.layers < 1:
            raise ConfigError(
                f"workload needs steps >= 1 and layers >= 1 (got steps="
                f"{self.steps}, layers={self.layers})")


def join_collective(
    sim: Simulator,
    group: Sequence[int],
    stream: str,
    duration: float,
    name: str,
    modifiers: Sequence["DurationModifier"] = (),
) -> List[TraceEvent]:
    """Run a synchronising collective across ``group`` on ``stream``.

    Every participant joins at its own stream frontier
    (``sim.now(rank, stream)``); the payload transfer begins only once
    the **slowest** participant has joined (this is what makes slow-rank
    localisation, Section 6.1, possible: fast ranks show long
    collectives).  The payload takes the **maximum** of the per-rank
    durations after ``modifiers`` (one rank's degraded link slows the
    whole collective), and only the participants whose own duration
    changed are tagged ``"faulted"``.

    Returns one ``comm`` event per participant, in group order, each
    spanning [join, collective end], so a rank's event duration includes
    its wait for stragglers.
    """
    group = tuple(group)
    now = sim.now
    joins = [now(rank, stream) for rank in group]
    if modifiers:
        from repro.faults.models import perturb_duration

        outs = [perturb_duration(modifiers, rank, stream, "comm", name,
                                 duration)[0] for rank in group]
        payload = max(outs)
        tags = [_FAULTED if out != duration else () for out in outs]
    else:
        if duration < 0:
            raise ValueError(f"negative duration for task {name!r}")
        payload = duration
        tags = [()] * len(group)
    end = max(joins) + payload
    events = [TraceEvent(name, "comm", rank, stream, join, end, group, tag)
              for rank, join, tag in zip(group, joins, tags)]
    for event in events:
        sim.record(event)
    return events


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
            applied to every event's duration before it is submitted.
    """
    from repro.faults.models import make_modifier, perturb_duration

    sim = sim or Simulator()
    modifiers = []
    if faults is not None:
        faults.validate(mesh)
        modifiers = [make_modifier(fault, fault.affected_ranks(mesh))
                     for fault in faults]
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
            name = f"compute:s{step}:l{layer}"
            for rank in range(world):
                duration, tags = spec.compute_seconds, ()
                if modifiers:
                    duration = perturb_duration(
                        modifiers, rank, "compute", "compute", name,
                        duration)[0]
                    if duration != spec.compute_seconds:
                        tags = _FAULTED
                sim.run(rank, "compute", duration, name, tags=tags)
            # CP's KV all-gather feeds attention, then TP collectives wrap
            # the block — so CP precedes TP within a layer.  This ordering
            # is what creates Figure 8's decoy: a rank waiting on its CP
            # peer joins the following TP collective late and *looks* like
            # the TP-group bottleneck.
            for group in cp_groups:
                join_collective(sim, group, "compute", spec.cp_comm_seconds,
                                f"cp:kv-ag:s{step}:l{layer}", modifiers)
            for group in tp_groups:
                join_collective(sim, group, "compute", spec.tp_comm_seconds,
                                f"tp:ag:s{step}:l{layer}", modifiers)
            # The expert FFN sits after attention, so the EP token
            # all-to-all (dispatch + combine folded into one event)
            # closes the layer.
            for group in ep_groups:
                join_collective(sim, group, "compute", spec.ep_comm_seconds,
                                f"ep:a2a:s{step}:l{layer}", modifiers)
        for pair in pp_pairs:
            join_collective(sim, pair, "compute", spec.pp_comm_seconds,
                            f"pp:p2p:s{step}", modifiers)
        for group in dp_groups:
            if len(group) > 1:
                join_collective(sim, group, "compute", spec.dp_comm_seconds,
                                f"dp:grad-rs:s{step}", modifiers)
    return sim
