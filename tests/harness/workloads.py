"""Seeded differential workloads: every engine consumer, in miniature.

Each workload is a function ``fn(sim) -> None`` that drives an engine
exclusively through its public API — ``run``, ``record`` and ``now`` —
either directly or through one of the real consumers (the step-graph
executor, the fault workload and its ``join_collective``, the
resilience run log).  The differential tests run
each workload once against the frozen reference engine and once against
the fast engine and diff every observable (see
:mod:`tests.harness.diffing`).

To add a workload: write a ``wl_*`` function taking a simulator, append
a :class:`Workload` row to ``DIFFERENTIAL_WORKLOADS``, and it is picked
up by the parametrized fixture in ``conftest.py`` automatically.  Keep
workloads deterministic — randomness belongs in the engine fuzzer
(``repro verify --engine``), which shrinks failures; these are the
curated, named scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.debug.workload import (
    WorkloadSpec,
    join_collective,
    run_synthetic_workload,
)
from repro.faults.inject import apply_fault_plan
from repro.faults.models import (
    ComputeStraggler,
    DegradedLink,
    FaultPlan,
    perturb_duration,
)
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage
from repro.parallel.mesh import DeviceMesh
from repro.pp.layout import build_layout
from repro.pp.schedule import ScheduleShape, build_flexible_schedule
from repro.pp.zoo import build_zero_bubble_schedule
from repro.resilience import (
    FailureTaxonomy,
    NoCheckpoint,
    RunConfig,
    YoungDaly,
    simulate_run,
)
from repro.sim.collectives import RetryPolicy
from repro.train.cost import StageCost
from repro.train.executor import execute_graph
from repro.train.lowering import lower_pipeline, lower_step
from repro.train.step import simulate_step


@dataclass(frozen=True)
class Workload:
    """One named differential scenario."""

    name: str
    fn: Callable


# ----------------------------------------------------------------------
# Step graphs on the three standard meshes
# ----------------------------------------------------------------------

#: The three mesh shapes every step-graph scenario in the repo exercises:
#: TP+PP+DP, the 4D shape with CP, and a deeper interleaved pipeline.
STANDARD_MESHES: Tuple[Tuple[str, ParallelConfig, JobConfig, int], ...] = (
    ("tp2_pp2_dp2", ParallelConfig(tp=2, pp=2, dp=2),
     JobConfig(seq=8192, gbs=8, ngpu=8), 8),
    ("tp2_cp2_pp2_dp2", ParallelConfig(tp=2, cp=2, pp=2, dp=2),
     JobConfig(seq=8192, gbs=8, ngpu=16), 16),
    ("tp4_pp4_dp2", ParallelConfig(tp=4, pp=4, dp=2),
     JobConfig(seq=8192, gbs=16, ngpu=32), 32),
)


def _step_workload(parallel: ParallelConfig, job: JobConfig, ngpu: int,
                   **kwargs):
    def fn(sim) -> None:
        simulate_step(LLAMA3_8B, parallel, job, grand_teton(ngpu),
                      sim=sim, **kwargs)
    return fn


def _straggling_pipeline(sim, graph, rank: int, scale: float) -> None:
    """Execute a lowered pipeline with one pipeline rank's compute
    scaled by a fault plan (the Section 8.1 throttled GPU)."""
    plan = FaultPlan((ComputeStraggler(rank=rank, extra_seconds=0.0,
                                       scale=scale),))
    graph, report = apply_fault_plan(
        graph, plan, DeviceMesh(ParallelConfig(pp=len(graph.programs))))
    execute_graph(graph, sim=sim, op_tags=report.tags_by_uid)


def wl_pipeline_interleaved(sim) -> None:
    """Raw pipeline executor: interleaved schedule, synthetic costs."""
    shape = ScheduleShape(pp=4, v=2, nc=2, nmb=8)
    graph = lower_pipeline(
        build_flexible_schedule(shape),
        build_layout(n_layers=16, pp=4, v=2),
        forward_cost=lambda s: StageCost(0.004 * s.n_layers, 0.001, 0.0005),
        backward_cost=lambda s: StageCost(0.008 * s.n_layers, 0.001, 0.0005),
        p2p_seconds=0.0003,
    )
    _straggling_pipeline(sim, graph, rank=2, scale=1.3)


def wl_pipeline_zero_bubble(sim) -> None:
    """Step executor: split-backward schedule — BI on the critical
    path, deferred BW ops filling the drain, with explicit asymmetric
    BI/BW pricing and a straggling rank."""
    shape = ScheduleShape(pp=4, v=1, nc=4, nmb=8)
    graph = lower_step(
        build_zero_bubble_schedule(shape),
        build_layout(n_layers=4, pp=4, v=1),
        forward_cost=lambda s: StageCost(0.004 * s.n_layers, 0.001, 0.0),
        backward_cost=lambda s: StageCost(0.008 * s.n_layers, 0.001, 0.0),
        backward_input_cost=lambda s: StageCost(
            0.005 * s.n_layers, 0.001, 0.0),
        backward_weight_cost=lambda s: StageCost(
            0.003 * s.n_layers, 0.0, 0.0),
        p2p_seconds=0.0003,
        zero=ZeroStage.ZERO_1,
        fsdp_allgather_cost=lambda s: 0.001 * s.n_layers,
        fsdp_reduce_scatter_cost=lambda s: 0.001 * s.n_layers,
        optimizer_cost=lambda ppr: 0.0005,
    )
    _straggling_pipeline(sim, graph, rank=1, scale=1.2)


# ----------------------------------------------------------------------
# Fault plans and modifiers
# ----------------------------------------------------------------------

_MESH_8 = DeviceMesh(ParallelConfig(tp=2, cp=2, dp=2))
_SPEC = WorkloadSpec(steps=2, layers=3)


def wl_fault_plan(sim) -> None:
    """Synthetic workload under a declarative fault plan."""
    run_synthetic_workload(
        _MESH_8, _SPEC, sim=sim,
        faults=FaultPlan((
            ComputeStraggler(rank=3, extra_seconds=0.4),
            DegradedLink(dim="tp", group=0, scale=2.5),
        )))


def wl_slowdown(sim) -> None:
    """Synthetic workload with two padding stragglers (the per-rank
    Section 6.1 slowdown shape) on different TP/CP groups."""
    run_synthetic_workload(
        _MESH_8, _SPEC, sim=sim,
        faults=FaultPlan((
            ComputeStraggler(rank=1, extra_seconds=0.25),
            ComputeStraggler(rank=6, extra_seconds=0.1),
        )))


def wl_modifier_chains(sim) -> None:
    """Stateful and mutually-cancelling modifier chains, applied with
    ``perturb_duration`` before submission (as the synthetic workload
    does).

    The doubling+halving pair restores the original duration bitwise
    (``(d * 2.0) * 0.5 == d`` for normal floats), pinning the
    ``out != duration`` faulted-tagging rule: restored events must NOT
    be tagged.  The one-shot modifier fires on exactly one event,
    exercising stateful-closure ordering.
    """
    fired = []

    def one_shot(rank, stream, kind, name, duration):
        if not fired and name == "victim":
            fired.append(True)
            return duration + 1.5
        return duration

    chain = [one_shot, lambda r, s, k, n, d: d * 2.0,
             lambda r, s, k, n, d: d * 0.5]

    def run(rank: int, duration: float, name: str) -> None:
        out, _ = perturb_duration(chain, rank, "compute", "compute", name,
                                  duration)
        sim.run(rank, "compute", out, name,
                tags=("faulted",) if out != duration else ())

    for rank in range(4):
        run(rank, 0.3, "warm")
    run(2, 0.2, "victim")
    run(2, 0.2, "victim")  # one-shot already consumed
    join_collective(sim, [0, 1, 2, 3], "comm", 0.1, "allreduce", chain)


# ----------------------------------------------------------------------
# Collective edge shapes
# ----------------------------------------------------------------------

def wl_skewed_collectives(sim) -> None:
    """Skewed join times, single-rank collectives and unsorted groups,
    interleaved with dependent tasks."""
    deps = {r: [sim.run(r, "comm", 0.1 * (r + 1), f"fwd{r}",
                        tags=("fsdp",))]
            for r in range(4)}
    join_collective(sim, [0, 1, 2, 3], "comm", 0.3, "ag")
    join_collective(sim, [2], "comm", 0.2, "solo")
    join_collective(sim, [3, 0], "comm", 0.15, "pair")  # unsorted ranks
    for r in range(4):
        sim.run(r, "compute", 0.05, "tail", after=[deps[r][0]])


# ----------------------------------------------------------------------
# Timeline splicing edge cases
# ----------------------------------------------------------------------

def wl_record_splices(sim) -> None:
    """record() splices interleaved with run(), not_before gaps and
    zero-duration tasks — the trace-merge code path."""
    event_cls = type(sim.run(0, "compute", 0.2, "a"))
    sim.record(event_cls("spliced", "comm", 0, "compute", 0.05, 0.45,
                         (), ("merged",)))
    b = sim.run(0, "compute", 0.1, "b")  # starts at the splice's end
    sim.record(event_cls("zero", "compute", 1, "compute", 0.0, 0.0))
    sim.run(1, "compute", 0.0, "zero2", after=[b])
    sim.run(1, "compute", 0.1, "late", not_before=2.0)
    sim.run(2, "p2p", 0.1, "fresh", not_before=0.5)  # a never-used stream
    sim.record(event_cls("back_in_time", "comm", 0, "compute", 0.0, 0.1))


# ----------------------------------------------------------------------
# Resilience runs (multi-step, retries, aborts, markers)
# ----------------------------------------------------------------------

def _replay_run_log(sim, config: RunConfig) -> None:
    """Record a run's rank-0 log (built with ``record`` by
    :func:`repro.resilience.simulate_run`) into ``sim``, entry by entry."""
    result = simulate_run(
        LLAMA3_8B, JobConfig(seq=8192, gbs=32, ngpu=32), grand_teton(32),
        config)
    for event in result.sim.events:
        sim.record(event)


def wl_resilience_run(sim) -> None:
    """Multi-step resilience run: failure markers, retry ladders,
    checkpoint/restart segments recorded into one timeline."""
    _replay_run_log(sim, RunConfig(
        steps=25, mtbf_seconds=150.0, seed=11, elastic=False,
        replacement_seconds=300.0, policy=YoungDaly()))


def wl_retry_ladders(sim) -> None:
    """A run whose every failure is a collective retry: timeout and
    backoff ladders on the ``dp`` stream, plus exhausted-budget aborts."""
    _replay_run_log(sim, RunConfig(
        steps=60, mtbf_seconds=15.0, seed=5, policy=NoCheckpoint(),
        taxonomy=FailureTaxonomy(node_loss_fraction=0.0, retry_fraction=1.0,
                                 retry_success_p=0.5),
        retry_policy=RetryPolicy(max_retries=4, timeout_seconds=2.0,
                                 backoff_base_seconds=0.25,
                                 backoff_multiplier=3.0)))


def wl_resilience_no_checkpoint(sim) -> None:
    _replay_run_log(sim, RunConfig(
        steps=15, mtbf_seconds=120.0, seed=3, elastic=True,
        policy=NoCheckpoint(), max_step_attempts=80))


# ----------------------------------------------------------------------
# Data-parallel replicas
# ----------------------------------------------------------------------

def wl_dp_replicas(sim) -> None:
    """Eight identical 4-rank replicas, submitted one after another.

    Each replica runs three compute/collective rounds with several
    disjoint collective groups per round, then one zero-length task —
    the submission shape of a data-parallel step replayed replica by
    replica.  A zero-length ``ready`` task carries each rank's compute
    dependency onto the ``tp`` stream the collectives join on.
    """
    for offset in range(0, 32, 4):
        ranks = [offset + r for r in range(4)]
        for step in range(3):
            for r in ranks:
                fwd = sim.run(r, "compute", 0.2 + 0.01 * (r - offset),
                              f"fwd:s{step}")
                sim.run(r, "tp", 0.0, f"ready:s{step}", after=[fwd])
            join_collective(sim, ranks, "tp", 0.05, f"ag:s{step}")
            join_collective(sim, ranks[:2], "tp", 0.03, f"rs_a:s{step}")
            join_collective(sim, ranks[2:], "tp", 0.03, f"rs_b:s{step}")
        sim.run(ranks[1], "compute", 0.0, "zero")


DIFFERENTIAL_WORKLOADS: Tuple[Workload, ...] = tuple(
    [Workload(f"step_{name}", _step_workload(par, job, ngpu))
     for name, par, job, ngpu in STANDARD_MESHES]
    + [
        Workload("step_faulted", _step_workload(
            *STANDARD_MESHES[0][1:],
            fault_plan=FaultPlan((
                ComputeStraggler(rank=2, extra_seconds=0.002),)))),
        Workload("step_zero3_recompute", _step_workload(
            ParallelConfig(tp=2, pp=2, dp=2, zero=ZeroStage.ZERO_3),
            JobConfig(seq=8192, gbs=8, ngpu=8), 8, recompute=True)),
        Workload("step_zero_bubble", _step_workload(
            *STANDARD_MESHES[0][1:], schedule_kind="zero-bubble")),
        Workload("step_heterogeneous_vit", _step_workload(
            *STANDARD_MESHES[0][1:], stage_preset="vit-encoder")),
        Workload("pipeline_interleaved", wl_pipeline_interleaved),
        Workload("pipeline_zero_bubble", wl_pipeline_zero_bubble),
        Workload("fault_plan", wl_fault_plan),
        Workload("slowdown", wl_slowdown),
        Workload("modifier_chains", wl_modifier_chains),
        Workload("retry_ladders", wl_retry_ladders),
        Workload("skewed_collectives", wl_skewed_collectives),
        Workload("record_splices", wl_record_splices),
        Workload("resilience_run", wl_resilience_run),
        Workload("resilience_no_checkpoint", wl_resilience_no_checkpoint),
        Workload("dp_replicas", wl_dp_replicas),
    ]
)
