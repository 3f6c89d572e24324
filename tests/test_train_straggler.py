"""Tests for straggler injection in the pipeline executor: the Section 8.1
claim that one slow accelerator sets the whole pipeline's pace.

Stragglers enter the step graph the one way every fault does: a
:class:`~repro.faults.models.ComputeStraggler` plan rewritten into the
lowered graph by :func:`~repro.faults.inject.apply_fault_plan`."""

import json
from pathlib import Path

import pytest

from repro.faults.inject import apply_fault_plan
from repro.faults.models import ComputeStraggler, FaultPlan
from repro.parallel.config import ParallelConfig
from repro.parallel.mesh import DeviceMesh
from repro.pp.analysis import ScheduleShape
from repro.pp.layout import build_layout
from repro.pp.schedule import build_flexible_schedule
from repro.train.cost import StageCost
from repro.train.executor import execute_graph, summarize_pipeline_execution
from repro.train.lowering import lower_pipeline

SHAPE = ScheduleShape(pp=4, v=2, nc=4, nmb=16)
MESH = DeviceMesh(ParallelConfig(pp=SHAPE.pp))


def scaled_pipeline(scale=None, comm_only=False):
    """Run the SHAPE pipeline with per-pipeline-rank compute multipliers
    (``{rank: factor}``), each injected as a scale-only straggler."""
    sched = build_flexible_schedule(SHAPE)
    layout = build_layout(SHAPE.pp * SHAPE.v, SHAPE.pp, SHAPE.v)
    if comm_only:
        fwd = lambda s: StageCost(0.0, 1.0 * s.n_layers, 0)  # noqa: E731
        bwd = lambda s: StageCost(0.0, 2.0 * s.n_layers, 0)  # noqa: E731
    else:
        fwd = lambda s: StageCost(1.0 * s.n_layers, 0, 0)  # noqa: E731
        bwd = lambda s: StageCost(2.0 * s.n_layers, 0, 0)  # noqa: E731
    graph = lower_pipeline(sched, layout, fwd, bwd, p2p_seconds=0.0)
    plan = FaultPlan(tuple(
        ComputeStraggler(rank=rank, extra_seconds=0.0, scale=factor)
        for rank, factor in (scale or {}).items()))
    graph, report = apply_fault_plan(graph, plan, MESH)
    execution = execute_graph(graph, op_tags=report.tags_by_uid)
    return summarize_pipeline_execution(execution, sched, 0.0)


class TestStragglerInjection:
    def test_one_slow_rank_slows_the_pipeline(self):
        base = scaled_pipeline()
        slow = scaled_pipeline({2: 1.2})
        assert slow.makespan > base.makespan

    def test_pipeline_pays_nearly_the_full_slowdown(self):
        """Fine-grain synchronisation: a 20% slower rank costs close to
        20% of end-to-end time, not 20%/pp (Section 8.1)."""
        base = scaled_pipeline()
        slow = scaled_pipeline({1: 1.2})
        inflation = slow.makespan / base.makespan - 1
        assert inflation > 0.12

    def test_uniform_slowdown_scales_exactly(self):
        base = scaled_pipeline()
        slow = scaled_pipeline({r: 1.5 for r in range(SHAPE.pp)})
        assert slow.makespan == pytest.approx(1.5 * base.makespan)

    def test_speedup_on_non_critical_rank_bounded(self):
        """Making one rank faster cannot speed the pipeline beyond the
        other ranks' critical path."""
        base = scaled_pipeline()
        fast = scaled_pipeline({0: 0.9})
        assert fast.makespan <= base.makespan
        assert fast.makespan > 0.8 * base.makespan

    def test_validation(self):
        with pytest.raises(ValueError):
            scaled_pipeline({0: 0.0})

    def test_only_compute_scaled_not_comm(self):
        """The multiplier models a throttled GPU: communication terms in
        the stage cost are unaffected."""
        assert (scaled_pipeline({1: 2.0}, comm_only=True).makespan
                == pytest.approx(scaled_pipeline(comm_only=True).makespan))

    def test_scale_maps_match_golden(self):
        """Each scale map reproduces the retired ``rank_compute_scale=``
        executor knob bitwise: makespan and per-rank busy time."""
        golden = json.loads(
            (Path(__file__).parent / "golden" / "fault_paths.json")
            .read_text())
        for case in golden["pipelines"]:
            scale = {int(r): f for r, f in case["scale"].items()}
            run = scaled_pipeline(scale, comm_only=case["costs"] == "comm")
            assert float.hex(run.makespan) == case["makespan"], case
            assert [float.hex(b) for b in run.per_rank_busy] == \
                case["per_rank_busy"], case
