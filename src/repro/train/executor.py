"""Graph interpreter: replays a lowered step graph onto the simulator.

:func:`execute_graph` walks every rank's program of typed
:class:`~repro.train.lowering.StepOp`s with a ready-list, releasing each
op when all of its dependency uids have executed, and runs it on its
dedicated (rank, stream) pair — ``compute``, ``tp``, ``cp``, ``ep``,
``p2p``, ``fsdp``, ``opt``.  Cross-rank P2P sends are asynchronous: they occupy
only the producer's ``p2p`` stream, and whenever a consumer's input
arrives *after* the consumer could have started, the gap is recorded as
an ``exposed_comm`` wait event — exactly the Figure 3 bubbles, surfaced
by the trace exporter as their own category.

The interpreter doubles as a deadlock detector — an invalid schedule
(one whose per-rank op order creates a circular wait) raises instead of
hanging, which is how the property-based schedule tests certify the
flexible-PP generator for arbitrary (pp, v, nc, nmb).

:func:`execute_pipeline` keeps the pre-graph entry point: it lowers a
(schedule, layout, costs) triple with
:func:`~repro.train.lowering.lower_pipeline` and interprets it,
returning the same :class:`PipelineRun` shape as before — except busy
time now counts *compute only*, with per-kind communication totals
reported separately in :attr:`PipelineRun.per_rank_comm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.ordered_sum import ordered_sum
from repro.pp.layout import PipelineLayout, StageAssignment
from repro.pp.schedule import PipelineOp, PipelineSchedule
from repro.sim.engine import Simulator, TraceEvent
from repro.train.cost import StageCost
from repro.train.lowering import (
    COMPUTE_STREAMS,
    PIPELINE_STREAMS,
    StepGraph,
    StepOpKind,
    lower_pipeline,
)

CostFn = Callable[[StageAssignment], StageCost]

@dataclass(frozen=True)
class GraphExecution:
    """Raw outcome of interpreting one step graph."""

    graph: StepGraph
    sim: Simulator
    #: Trace event of every executed op, by uid.
    events: Dict[int, TraceEvent]
    #: Synthesized exposed-P2P wait events, in emission order.
    wait_events: Tuple[TraceEvent, ...]

    def events_of_kind(self, *kinds: StepOpKind) -> List[TraceEvent]:
        # ``in`` over the tuple compares kinds by identity; no enum hashing.
        events = self.events
        return [events[op.uid] for prog in self.graph.programs
                for op in prog if op.kind in kinds]


def execute_graph(
    graph: StepGraph,
    sim: Optional[Simulator] = None,
    start_times: Optional[Mapping[int, float]] = None,
    metrics: Optional[MetricsRegistry] = None,
    op_tags: Optional[Mapping[int, Tuple[str, ...]]] = None,
) -> GraphExecution:
    """Interpret a step graph onto the simulator.

    Args:
        graph: Lowered per-rank programs.
        sim: Simulator to record into (a fresh one by default).
        start_times: Optional per-rank earliest start applied to every op
            of the rank (models an externally-imposed release time).
        metrics: Registry for op counts, op durations, and exposed-P2P
            wait seconds (keyed by PP rank).
        op_tags: Trace tags per op uid — how a fault-perturbed graph
            (:func:`repro.faults.inject.apply_fault_plan`) marks its
            rewritten ops ``"faulted"`` in the timeline.  Tagged ops are
            also counted in the ``faults.injected_ops`` metric.
    """
    sim = sim or Simulator()
    start_times = start_times or {}
    op_tags = op_tags or {}

    if metrics is not None:
        op_count = metrics.counter(
            "pp.ops", unit="ops",
            description="pipeline ops executed, by rank and kind")
        op_seconds = metrics.histogram(
            "pp.op_seconds", unit="s",
            description="pipeline compute-op durations, by kind")
        exposed_p2p = metrics.counter(
            "pp.exposed_p2p_seconds", unit="s",
            description="compute-stream time lost waiting for P2P input")
        injected_ops = metrics.counter(
            "faults.injected_ops", unit="ops",
            description="fault-perturbed ops executed, by rank")

    events: Dict[int, TraceEvent] = {}
    waits: List[TraceEvent] = []
    programs = graph.programs
    pointers = [0] * len(programs)
    total_ops = sum(len(p) for p in programs)
    executed = 0
    has_tags = bool(op_tags)
    run = sim.run

    # The ready-list walk below visits ranks round-robin and runs each
    # rank's program as far as its dependencies allow.  The visiting
    # order — and therefore the event submission order — is part of the
    # engine's observable behaviour (traces and golden reports are
    # byte-stable), so the optimisations here (hoisted per-rank lookups,
    # inlined dependency checks) must never reorder submissions.
    while executed < total_ops:
        progressed = False
        for rank, prog in enumerate(programs):
            ptr = pointers[rank]
            n_ops = len(prog)
            if ptr >= n_ops:
                continue
            floor = start_times.get(rank, 0.0)
            while ptr < n_ops:
                op = prog[ptr]
                ready = True
                for uid in op.deps:
                    if uid not in events:
                        ready = False
                        break
                if not ready:
                    break
                deps = [events[uid] for uid in op.deps]
                if op.wait_name is not None:
                    # Exposed wait: the gap between the rank being ready
                    # (own stream free, local inputs done) and the
                    # cross-rank input arriving.
                    arrival = max(
                        (d.end for d in deps if d.rank != rank),
                        default=0.0)
                    local_ready = max(
                        sim.now(rank, op.stream), floor,
                        max((d.end for d in deps if d.rank == rank),
                            default=0.0))
                    if arrival > local_ready:
                        wait = sim.run(
                            rank=rank,
                            stream="wait",
                            duration=arrival - local_ready,
                            name=op.wait_name,
                            kind="exposed_comm",
                            not_before=local_ready,
                        )
                        waits.append(wait)
                        if metrics is not None:
                            exposed_p2p.inc(wait.duration, rank=rank)
                stream = op.stream
                tags = op_tags.get(op.uid, ()) if has_tags else ()
                event = run(
                    rank=rank,
                    stream=stream,
                    duration=op.duration,
                    name=op.name,
                    kind=("compute" if stream in COMPUTE_STREAMS
                          else "comm"),
                    after=deps,
                    not_before=floor,
                    tags=tags,
                )
                if metrics is not None:
                    if tags:
                        injected_ops.inc(1, rank=rank)
                    if op.pipeline_op is not None:
                        kind_label = op.pipeline_op.kind.name.lower()
                        op_count.inc(1, rank=rank, kind=kind_label)
                        op_seconds.observe(event.duration, kind=kind_label)
                events[op.uid] = event
                ptr += 1
                executed += 1
                progressed = True
            if ptr != pointers[rank]:
                pointers[rank] = ptr
        if not progressed:
            blocked = [
                (rank, prog[pointers[rank]].name)
                for rank, prog in enumerate(programs)
                if pointers[rank] < len(prog)
            ]
            raise RuntimeError(
                f"pipeline schedule deadlocked; blocked ops: {blocked}"
            )

    return GraphExecution(graph=graph, sim=sim, events=events,
                          wait_events=tuple(waits))


@dataclass(frozen=True)
class PipelineRun:
    """Result of executing one schedule."""

    schedule: PipelineSchedule
    sim: Simulator
    #: Latest end time across the run's own pipeline events (a step
    #: timeline's FSDP/optimizer tail is *not* included — see
    #: :class:`repro.train.step.StepReport` for the full-step time).
    makespan: float
    #: Per-rank **compute-only** busy seconds (communication is tallied
    #: separately in :attr:`per_rank_comm`).
    per_rank_busy: Tuple[float, ...]
    #: Compute event of every executed op, for timeline verification
    #: (:mod:`repro.verify.invariants` checks send-before-recv against
    #: these without parsing event names).
    op_events: Optional[Dict[PipelineOp, TraceEvent]] = None
    #: P2P latency the run was executed with; None when unknown (e.g. a
    #: PipelineRun assembled outside execute_pipeline).
    p2p_seconds: Optional[float] = None
    #: Earliest pipeline compute start — nonzero when something (e.g. the
    #: first FSDP all-gather) delays the whole pipeline; bubble ratios
    #: measure idleness from here, not from t=0.
    start_time: float = 0.0
    #: Per-rank communication seconds by kind ("tp", "cp", "ep", "p2p",
    #: "exposed_p2p", and "fsdp" for step timelines).
    per_rank_comm: Optional[Tuple[Dict[str, float], ...]] = None

    @property
    def pp(self) -> int:
        return self.schedule.pp

    @property
    def per_rank_occupied(self) -> Tuple[float, ...]:
        """Compute plus exposed TP/CP/EP communication per rank — the
        time a rank is *doing* pipeline work (the pre-graph notion of
        busy)."""
        if self.per_rank_comm is None:
            return self.per_rank_busy
        return tuple(
            busy + comm.get("tp", 0.0) + comm.get("cp", 0.0)
            + comm.get("ep", 0.0)
            for busy, comm in zip(self.per_rank_busy, self.per_rank_comm)
        )

    @property
    def per_rank_idle(self) -> Tuple[float, ...]:
        span = self.makespan - self.start_time
        return tuple(span - occ for occ in self.per_rank_occupied)

    @property
    def bubble_ratios(self) -> Tuple[float, ...]:
        """Per-rank idle over occupied — the paper's PP bubble metric."""
        return tuple(
            idle / occ if occ > 0 else 0.0
            for idle, occ in zip(self.per_rank_idle, self.per_rank_occupied)
        )

    @property
    def mean_bubble_ratio(self) -> float:
        ratios = self.bubble_ratios
        return ordered_sum(ratios) / len(ratios)


def summarize_pipeline_execution(
    execution: GraphExecution,
    schedule: PipelineSchedule,
    p2p_seconds: Optional[float],
) -> PipelineRun:
    """Fold an interpreted graph's pipeline region into a PipelineRun."""
    pp = schedule.pp
    busy = [0.0] * pp
    comm: List[Dict[str, float]] = [{} for _ in range(pp)]
    op_events: Dict[PipelineOp, TraceEvent] = {}
    makespan = 0.0
    start_time: Optional[float] = None
    events = execution.events
    # Branch on the op's stream: COMPUTE is the only op on ``compute``,
    # the optimizer the only one on ``opt``, and every other stream is
    # communication keyed by its own name (see repro.train.lowering).
    for prog in execution.graph.programs:
        for op in prog:
            event = events[op.uid]
            stream = op.stream
            if stream == "compute":
                busy[op.rank] += event.duration
                if op.pipeline_op is not None:
                    op_events[op.pipeline_op] = event
                if start_time is None or event.start < start_time:
                    start_time = event.start
            elif stream not in COMPUTE_STREAMS:
                rank_comm = comm[op.rank]
                rank_comm[stream] = (
                    rank_comm.get(stream, 0.0) + event.duration)
            if stream in PIPELINE_STREAMS and event.end > makespan:
                makespan = event.end
    for wait in execution.wait_events:
        comm[wait.rank]["exposed_p2p"] = (
            comm[wait.rank].get("exposed_p2p", 0.0) + wait.duration)
        makespan = max(makespan, wait.end)
    return PipelineRun(
        schedule=schedule,
        sim=execution.sim,
        makespan=makespan,
        per_rank_busy=tuple(busy),
        op_events=op_events,
        p2p_seconds=p2p_seconds,
        start_time=start_time or 0.0,
        per_rank_comm=tuple(comm),
    )


def execute_pipeline(
    schedule: PipelineSchedule,
    layout: PipelineLayout,
    forward_cost: CostFn,
    backward_cost: CostFn,
    p2p_seconds: float,
    sim: Optional[Simulator] = None,
    start_times: Optional[Dict[int, float]] = None,
    metrics: Optional[MetricsRegistry] = None,
    backward_input_cost: Optional[CostFn] = None,
    backward_weight_cost: Optional[CostFn] = None,
) -> PipelineRun:
    """Lower a schedule and execute its timeline.

    Args:
        schedule: The per-rank programs.
        layout: Layer placement (supplies each op's stage contents).
        forward_cost: Stage -> forward cost for one micro-batch.
        backward_cost: Stage -> backward cost for one micro-batch.
        backward_input_cost: Optional BI pricing for split-backward
            schedules (defaults to the exact-sum split of backward).
        backward_weight_cost: Optional BW pricing, likewise.
        p2p_seconds: Inter-stage activation/gradient transfer time.
        sim: Simulator to record into (a fresh one by default).
        start_times: Optional per-rank earliest start (models the exposed
            first FSDP all-gather).
        metrics: Registry to report op counts, op durations, and exposed
            P2P wait seconds into (keyed by PP rank).

    Whenever an op's cross-rank input arrives *after* the rank could have
    started it, the gap is recorded as an ``exposed_comm`` event on the
    rank's ``wait`` stream — those are exactly the Figure 3 bubbles, and
    the trace exporter surfaces them as their own category.
    """
    graph = lower_pipeline(
        schedule, layout, forward_cost, backward_cost, p2p_seconds,
        backward_input_cost=backward_input_cost,
        backward_weight_cost=backward_weight_cost)
    execution = execute_graph(
        graph, sim=sim, start_times=start_times, metrics=metrics)
    return summarize_pipeline_execution(execution, schedule, p2p_seconds)
