"""The synthetic workload matches its frozen engine-driven original.

:func:`repro.debug.workload.run_synthetic_workload` applies its fault
plan with :func:`repro.faults.models.perturb_duration` and submits its
collectives through :func:`repro.debug.workload.join_collective`.  The
frozen original in ``tests/harness/reference_workload.py`` did both
inside the engine (``FaultPlan.install`` duration modifiers and the
batched ``run_collective``) on the frozen reference engine.  Every event
must match: order, name, kind, rank, stream, group, tags, and start/end
by ``float.hex``.

The cases cover the Figure 8 mesh, a pipelined mesh and an MoE mesh,
every fault kind in :mod:`repro.faults.models` (the stateful
``HungRank`` and ``PeriodicJitter`` included), and two-fault plans that
pin the chain order.
"""

from __future__ import annotations

import pytest

from repro.debug.workload import WorkloadSpec, run_synthetic_workload
from repro.faults.models import (
    CollectiveRetry,
    ComputeStraggler,
    DegradedLink,
    FaultPlan,
    HotExpert,
    HungRank,
    PeriodicJitter,
)
from repro.parallel.config import ParallelConfig
from repro.parallel.mesh import DeviceMesh
from tests.harness import reference_workload

MESHES = {
    "fig8_tp4_cp2": ParallelConfig(tp=4, cp=2),
    "tp2_pp2_dp2": ParallelConfig(tp=2, pp=2, dp=2),
    "moe_tp2_ep2_dp2": ParallelConfig(tp=2, ep=2, dp=2),
}

SPEC = WorkloadSpec(steps=3, layers=3)

PLANS = {
    "healthy": None,
    "empty_plan": FaultPlan(()),
    "straggler": FaultPlan((ComputeStraggler(rank=6, extra_seconds=0.5),)),
    "straggler_scaled": FaultPlan((
        ComputeStraggler(rank=3, extra_seconds=0.0, scale=1.25),)),
    "link_tp_group": FaultPlan((DegradedLink(dim="tp", group=1, scale=2.5),)),
    "link_dp_rank": FaultPlan((DegradedLink(dim="dp", rank=5, scale=1.5),)),
    "link_pp_group": FaultPlan((DegradedLink(dim="pp", group=0, scale=3.0),)),
    "hung": FaultPlan((HungRank(rank=2, hang_seconds=4.0),)),
    "jitter": FaultPlan((PeriodicJitter(rank=1, period=3,
                                        extra_seconds=0.07),)),
    "retry_cp": FaultPlan((CollectiveRetry("cp", retries=2,
                                           extra_seconds=0.09),)),
    "retry_dp_rank": FaultPlan((CollectiveRetry("dp", rank=4),)),
    "hot_expert": FaultPlan((HotExpert(rank=5, imbalance=2.5),)),
    # Two faults on the same rank and events: the second sees the
    # first's output, so swapping them changes the floats.
    "scale_then_pad": FaultPlan((
        ComputeStraggler(rank=2, extra_seconds=0.0, scale=1.5),
        ComputeStraggler(rank=2, extra_seconds=0.3),
    )),
    "pad_then_scale": FaultPlan((
        ComputeStraggler(rank=2, extra_seconds=0.3),
        ComputeStraggler(rank=2, extra_seconds=0.0, scale=1.5),
    )),
}


def _rows(sim):
    return [(e.name, e.kind, e.rank, e.stream, e.start.hex(), e.end.hex(),
             tuple(e.group), tuple(e.tags)) for e in sim.events]


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_workload_matches_frozen_reference(mesh_name, plan_name):
    mesh = DeviceMesh(MESHES[mesh_name])
    plan = PLANS[plan_name]
    reference = reference_workload.run_synthetic_workload(
        mesh, SPEC, faults=plan)
    new = run_synthetic_workload(mesh, SPEC, faults=plan)
    ref_rows, new_rows = _rows(reference), _rows(new)
    assert len(new_rows) == len(ref_rows)
    for i, (ref_row, new_row) in enumerate(zip(ref_rows, new_rows)):
        assert new_row == ref_row, f"event {i}"


@pytest.mark.parametrize("plan_name", sorted(set(PLANS) - {"healthy",
                                                           "empty_plan"}))
def test_every_plan_perturbs_some_mesh(plan_name):
    """Guard against comparing only unperturbed timelines: each fault
    plan tags at least one event on at least one of the meshes."""
    assert any(
        "faulted" in event.tags
        for par in MESHES.values()
        for event in run_synthetic_workload(
            DeviceMesh(par), SPEC, faults=PLANS[plan_name]).events)


def test_chain_order_is_observable():
    """The two orderings of the two-fault plan give different timelines,
    so the differential above pins the order, not just the set."""
    mesh = DeviceMesh(MESHES["fig8_tp4_cp2"])
    a = run_synthetic_workload(mesh, SPEC, faults=PLANS["scale_then_pad"])
    b = run_synthetic_workload(mesh, SPEC, faults=PLANS["pad_then_scale"])
    assert _rows(a) != _rows(b)
