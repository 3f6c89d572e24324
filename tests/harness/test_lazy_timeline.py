"""The step-graph timeline is a view of the timing, built once on read.

:func:`repro.train.executor.execute_graph` times a graph into flat lists
and builds its trace events only when ``events``, ``wait_events`` or
``sim`` is first read — or at once, into a simulator the caller passes.
These tests pin that the two give the same timeline, field for field and
in the same order, over the lowering-differential grid; that the
executor's metrics equal the frozen reference interpreter's, label set
for label set in insertion order; that the ``sim.*`` gauges, written
from the step's per-rank record, equal what the built timeline gives;
and that a step whose caller reads no timeline builds no
:class:`~repro.sim.engine.TraceEvent`.
"""

from __future__ import annotations

from typing import List

import pytest

import repro.train.executor as executor
from repro.faults.inject import apply_fault_plan
from repro.faults.models import (
    ComputeStraggler,
    DegradedLink,
    FaultPlan,
    PeriodicJitter,
)
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.obs.metrics import MetricsRegistry, pp_rank_map
from repro.ordered_sum import ordered_sum
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage
from repro.parallel.mesh import DeviceMesh
from repro.pp.layout import build_layout
from repro.pp.registry import schedule_kinds
from repro.pp.schedule import (
    ScheduleShape,
    build_flexible_schedule,
    build_schedule,
)
from repro.sim.engine import Simulator
from repro.train.cost import StageCost
from repro.train.executor import execute_graph
from repro.train.lowering import lower_pipeline, lower_step
from repro.train.step import simulate_step
from tests.harness import reference_lowering as ref
from tests.harness import reference_sim_metrics
from tests.harness.diffing import compare_simulators, diff_event_lists
from tests.harness.test_lowering_differential import (
    MESHES,
    PIPELINE_CASES,
    _step_inputs,
    _synthetic_costs,
)
from tests.harness.workloads import STANDARD_MESHES

EXECUTOR_METRICS = ("pp.ops", "pp.op_seconds", "pp.exposed_p2p_seconds",
                    "faults.injected_ops")
#: Gauges the frozen event-path oracle and the record agree on.
ORACLE_GAUGES = ("sim.busy_seconds", "sim.exposed_comm_seconds")
#: Gauges of the record's pipeline-window definition.
WINDOW_GAUGES = ("sim.idle_seconds", "sim.bubble_ratio")
#: Streams whose events close the pipeline window.
WINDOW_STREAMS = ("compute", "tp", "cp", "ep", "p2p", "wait")


# ----------------------------------------------------------------------
# Graphs: the lowering-differential grid plus a faulted one
# ----------------------------------------------------------------------


def _pipeline_graph(case, mix):
    schedule = build_schedule(case.shape, case.kind)
    layout = build_layout(32, case.shape.pp, case.shape.v)
    fwd, bwd = _synthetic_costs(*mix)
    return lower_pipeline(schedule, layout, fwd, bwd, 2e-4)


def _step_graph(kind, mesh, zero):
    _, model, dims, seq, gbs = mesh
    parallel = ParallelConfig(zero=zero, **dims)
    job = JobConfig(seq=seq, gbs=gbs, ngpu=parallel.world_size)
    v = 2 if parallel.pp > 1 else 1
    _, _, args, kwargs = _step_inputs(model, parallel, job, kind, v,
                                      parallel.pp, hetero=False)
    return lower_step(*args, **kwargs)


def _faulted_graph():
    """The ``pipeline_interleaved`` differential workload's graph: a
    straggling rank, a degraded P2P link and jitter, every perturbed op
    tagged ``"faulted"``."""
    graph = lower_pipeline(
        build_flexible_schedule(ScheduleShape(pp=4, v=2, nc=2, nmb=8)),
        build_layout(n_layers=16, pp=4, v=2),
        forward_cost=lambda s: StageCost(0.004 * s.n_layers, 0.001, 0.0005),
        backward_cost=lambda s: StageCost(0.008 * s.n_layers, 0.001, 0.0005),
        p2p_seconds=0.0003,
    )
    plan = FaultPlan((ComputeStraggler(rank=2, extra_seconds=0.0, scale=1.3),
                      DegradedLink(dim="pp", rank=1, scale=3.0),
                      PeriodicJitter(rank=3, period=3, extra_seconds=0.002)))
    graph, report = apply_fault_plan(
        graph, plan, DeviceMesh(ParallelConfig(pp=4)))
    assert report.ops_faulted > 0
    return graph, report.tags_by_uid


GRID = (
    [pytest.param(_pipeline_graph, (case, mix),
                  id=f"pipeline-{case}-tp{mix[0]:d}cp{mix[1]:d}ep{mix[2]:d}")
     for case, mix in PIPELINE_CASES]
    + [pytest.param(_step_graph, (kind, mesh, zero),
                    id=f"step-{kind}-{mesh[0]}-{zero.name}")
       for kind in schedule_kinds() for mesh in MESHES
       for zero in (ZeroStage.ZERO_1, ZeroStage.ZERO_3)]
)


def _identical(problems: List[str]) -> None:
    assert not problems, "\n".join(problems)


def _check_same_timeline(lazy, eager) -> None:
    """Field for field, in order, and every op/wait event shared with the
    simulator that holds it."""
    assert list(lazy.events) == list(eager.events)
    _identical(diff_event_lists(list(eager.events.values()),
                                list(lazy.events.values()), "events"))
    _identical(diff_event_lists(eager.wait_events, lazy.wait_events,
                                "wait_events"))
    _identical(compare_simulators(eager.sim, lazy.sim))
    for execution in (lazy, eager):
        timeline = execution.sim.events
        ops = [e for e in timeline if e.stream != "wait"]
        waits = [e for e in timeline if e.stream == "wait"]
        assert len(ops) == len(execution.events)
        assert all(a is b for a, b in zip(ops, execution.events.values()))
        assert len(waits) == len(execution.wait_events)
        assert all(a is b for a, b in zip(waits, execution.wait_events))


class TestLazyEqualsEager:
    @pytest.mark.parametrize("make,args", GRID)
    def test_grid(self, make, args):
        graph = make(*args)
        lazy = execute_graph(graph)
        eager = execute_graph(graph, sim=Simulator())
        _check_same_timeline(lazy, eager)
        # Both equal the frozen interpreter's timeline.
        reference = ref.execute_graph(graph)
        _identical(compare_simulators(reference.sim, lazy.sim))

    def test_faulted_graph(self):
        graph, tags = _faulted_graph()
        lazy = execute_graph(graph, op_tags=tags)
        eager = execute_graph(graph, sim=Simulator(), op_tags=tags)
        _check_same_timeline(lazy, eager)
        assert lazy.wait_events, "the faulted graph should expose P2P waits"
        assert any("faulted" in e.tags for e in lazy.events.values())
        reference = ref.execute_graph(graph, op_tags=tags)
        _identical(compare_simulators(reference.sim, lazy.sim))

    def test_streams_start_where_the_callers_simulator_has_them(self):
        graph, tags = _faulted_graph()
        reference, live = Simulator(), Simulator()
        # A first graph leaves every stream busy; the second starts there.
        ref.execute_graph(graph, sim=reference, op_tags=tags)
        execute_graph(graph, sim=live, op_tags=tags)
        ref.execute_graph(graph, sim=reference)
        second = execute_graph(graph, sim=live)
        _identical(compare_simulators(reference, live))
        assert second.sim is live
        assert min(e.start for e in second.events.values()) > 0.0


class _CountingEvent(executor.TraceEvent):
    """TraceEvent that counts its constructions."""

    __slots__ = ()
    built = 0

    def __init__(self, *args, **kwargs) -> None:
        type(self).built += 1
        super().__init__(*args, **kwargs)


class TestTimelineBuiltOnRead:
    @pytest.fixture
    def counting(self, monkeypatch):
        monkeypatch.setattr(_CountingEvent, "built", 0)
        monkeypatch.setattr(executor, "TraceEvent", _CountingEvent)
        return _CountingEvent

    @pytest.mark.parametrize("read_first", ("run.sim", "execution.events"))
    def test_step_builds_no_event_until_read(self, counting, read_first):
        _, parallel, job, ngpu = STANDARD_MESHES[2]
        rep = simulate_step(LLAMA3_8B, parallel, job, grand_teton(ngpu),
                            metrics=MetricsRegistry())
        assert counting.built == 0
        if read_first == "run.sim":
            rep.run.sim
        else:
            rep.execution.events
        built = counting.built
        assert built > 0
        n_events = len(rep.run.sim.events)
        assert built == n_events
        assert n_events == (len(rep.execution.events)
                            + len(rep.execution.wait_events))
        rep.run.op_events
        rep.execution.sim
        assert counting.built == built

    def test_passed_simulator_is_filled_at_once(self, counting):
        _, parallel, job, ngpu = STANDARD_MESHES[0]
        sim = Simulator()
        rep = simulate_step(LLAMA3_8B, parallel, job, grand_teton(ngpu),
                            sim=sim)
        assert counting.built == len(sim.events) > 0
        assert rep.run.sim is sim and rep.execution.sim is sim


# ----------------------------------------------------------------------
# Metrics: the executor's against the frozen interpreter's, and the
# sim.* gauges against the built timeline
# ----------------------------------------------------------------------


def _same_value(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return type(a) is type(b) and a.hex() == b.hex()
    if hasattr(a, "count"):  # HistogramSummary
        return all(_same_value(getattr(a, f), getattr(b, f))
                   for f in ("count", "total", "min", "max"))
    return a == b


def _diff_metric(name: str, reference: MetricsRegistry,
                 live: MetricsRegistry) -> List[str]:
    """Every difference between one metric's samples, insertion order
    included (``aggregate_by_coord`` sums in that order)."""
    if (name in reference) != (name in live):
        return [f"{name}: registered on one side only"]
    if name not in reference:
        return []
    ref_items = list(reference.get(name).values.items())
    live_items = list(live.get(name).values.items())
    if [k for k, _ in ref_items] != [k for k, _ in live_items]:
        return [f"{name}: label sets {[k for k, _ in ref_items]} != "
                f"{[k for k, _ in live_items]}"]
    return [f"{name}{dict(k)}: {a!r} != {b!r}"
            for (k, a), (_, b) in zip(ref_items, live_items)
            if not _same_value(a, b)]


#: ``() -> (graph, op_tags)`` for the metrics oracle.
METRIC_GRAPHS = (
    pytest.param(_faulted_graph, id="faulted"),
    pytest.param(lambda: (_step_graph("flexible", MESHES[0],
                                      ZeroStage.ZERO_3), {}),
                 id="step-flexible"),
    pytest.param(lambda: (_step_graph("zero-bubble", MESHES[3],
                                      ZeroStage.ZERO_1), {}),
                 id="step-zero-bubble-moe"),
)


class TestExecutorMetrics:
    @pytest.mark.parametrize("make", METRIC_GRAPHS)
    def test_metrics_match_the_frozen_interpreter(self, make):
        graph, tags = make()
        reference, live = MetricsRegistry(), MetricsRegistry()
        # Twice into the same registries: the second pass accumulates
        # onto existing samples, where summation order shows.
        for _ in range(2):
            ref.execute_graph(graph, metrics=reference, op_tags=tags)
            execute_graph(graph, metrics=live, op_tags=tags)
        problems: List[str] = []
        for name in EXECUTOR_METRICS:
            problems += _diff_metric(name, reference, live)
        _identical(problems)
        assert live.get("pp.ops").values

    @pytest.mark.parametrize("fault", (None, "straggler"))
    @pytest.mark.parametrize("mesh", STANDARD_MESHES + (
        ("tp8_pp1_dp1", ParallelConfig(tp=8, pp=1, dp=1),
         JobConfig(seq=4096, gbs=8, ngpu=8), 8),), ids=lambda m: m[0])
    def test_sim_gauges_equal_the_built_timeline(self, mesh, fault):
        """Busy and exposed-wait seconds equal the frozen event-path
        oracle's bit for bit; idle and bubble equal the pipeline-window
        definition recomputed from the built events."""
        _, parallel, job, ngpu = mesh
        plan = (FaultPlan((ComputeStraggler(rank=0, extra_seconds=0.01),))
                if fault else None)
        metrics = MetricsRegistry()
        rep = simulate_step(LLAMA3_8B, parallel, job, grand_teton(ngpu),
                            metrics=metrics, fault_plan=plan)
        rank_map = pp_rank_map(parallel)
        oracle = reference_sim_metrics.record_simulator_metrics(
            rep.run.sim, MetricsRegistry(), rank_map=rank_map)
        window = _window_gauges(rep.run.sim, rank_map)
        problems: List[str] = []
        for name in ORACLE_GAUGES:
            problems += _diff_metric(name, oracle, metrics)
        for name in WINDOW_GAUGES:
            problems += _diff_metric(name, window, metrics)
        _identical(problems)
        assert "sim.comm_seconds" not in metrics


def _window_gauges(sim: Simulator, rank_map) -> MetricsRegistry:
    """Idle and bubble from built events: the window runs from the first
    compute event to the last pipeline-stream or wait end; a rank is
    occupied for its compute plus tp/cp/ep event time."""
    events = sim.events
    window = (max(e.end for e in events if e.stream in WINDOW_STREAMS)
              - min(e.start for e in events if e.stream == "compute"))
    registry = MetricsRegistry()
    idle = registry.gauge("sim.idle_seconds")
    bubble = registry.gauge("sim.bubble_ratio")
    for rank in sorted({e.rank for e in events}):
        occupied = ordered_sum(
            e.duration for e in sim.events_for(rank, stream="compute"))
        for stream in ("tp", "cp", "ep"):
            occupied = occupied + ordered_sum(
                e.duration for e in sim.events_for(rank, stream=stream))
        label = rank_map.get(rank, rank)
        idle.set(window - occupied, rank=label)
        bubble.set((window - occupied) / occupied if occupied > 0 else 0.0,
                   rank=label)
    return registry
