"""Graph interpreter: times a lowered step graph; its timeline is a view.

:func:`execute_graph` walks every rank's program of typed
:class:`~repro.train.lowering.StepOp`s with a ready-list, releasing each
op when all of its dependency uids have executed, and times it on its
dedicated (rank, stream) pair — ``compute``, ``tp``, ``cp``, ``ep``,
``p2p``, ``fsdp``, ``opt``.  An op starts at the latest of its stream's
free time and its dependencies' ends, and ends its duration later: the
rule :meth:`repro.sim.engine.Simulator.run` applies, written into flat
per-uid lists (:class:`GraphTiming`) instead of trace events.
Cross-rank P2P sends are asynchronous: they occupy only the producer's
``p2p`` stream, and whenever a consumer's input arrives *after* the
consumer could have started, the gap is timed as an ``exposed_comm``
wait on the rank's ``wait`` stream — exactly the Figure 3 bubbles,
surfaced by the trace exporter as their own category.

The timeline is a view.  :class:`GraphExecution` builds its ``events``,
``wait_events`` and ``sim`` once, on first read, by replaying the timing
in submission order (the round-robin order of the walk) through
:meth:`~repro.sim.engine.Simulator.record`; a caller that passes
``sim=`` gets them built at once into that simulator.  The summary
(:func:`summarize_pipeline_execution`) reads the lists, and the
step-time decomposition and the ``sim.*`` gauges read the summary, so a
step whose caller reads no timeline builds no
:class:`~repro.sim.engine.TraceEvent`.

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

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.built_on_read import UNBUILT, BuiltOnRead
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
    StepOp,
    StepOpKind,
    lower_pipeline,
)

CostFn = Callable[[StageAssignment], StageCost]


@dataclass(frozen=True)
class GraphTiming:
    """Start and end of every op of one interpreted step graph.

    ``start``, ``end`` and ``rank`` are indexed by op uid (lowering
    numbers a graph's ops ``0..n-1``).  ``order`` holds the ops in
    submission order, the order of the ready-list walk, which traces and
    golden reports keep.  Wait ``i`` is submitted just before op
    ``wait_uid[i]``, on that op's rank.
    """

    start: List[float]
    end: List[float]
    rank: List[int]
    order: List[StepOp]
    wait_uid: List[int]
    wait_start: List[float]
    wait_end: List[float]
    #: Trace tags per op uid (see :func:`execute_graph`).
    tags: Mapping[int, Tuple[str, ...]]


@dataclass(frozen=True)
class GraphExecution:
    """Outcome of interpreting one step graph: its timing, and its
    timeline as a view built on first read."""

    graph: StepGraph
    #: Simulator holding the timeline: the one passed to
    #: :func:`execute_graph`, else a fresh one.
    sim: Simulator = BuiltOnRead()
    #: Trace event of every executed op, by uid, in submission order.
    events: Dict[int, TraceEvent] = BuiltOnRead()
    #: Synthesized exposed-P2P wait events, in emission order.
    wait_events: Tuple[TraceEvent, ...] = BuiltOnRead()
    #: What the timeline is built from; None when the execution was
    #: assembled from events.
    timing: Optional[GraphTiming] = None

    def _build(self, name: str) -> object:
        """Replay the timing into the simulator, in submission order."""
        timing = self.timing
        if timing is None:
            return None
        built = self.__dict__
        sim = built["sim"]
        if sim is UNBUILT:
            sim = Simulator()
        record = sim.record
        start, end, rank_of = timing.start, timing.end, timing.rank
        tags = timing.tags
        wait_uid, wait_start, wait_end = (
            timing.wait_uid, timing.wait_start, timing.wait_end)
        n_waits = len(wait_uid)
        next_wait = wait_uid[0] if n_waits else -1
        events: Dict[int, TraceEvent] = {}
        waits: List[TraceEvent] = []
        for op in timing.order:
            uid = op.uid
            rank = rank_of[uid]
            if uid == next_wait:
                i = len(waits)
                wait = TraceEvent(op.wait_name, "exposed_comm", rank, "wait",
                                  wait_start[i], wait_end[i])
                record(wait)
                waits.append(wait)
                next_wait = wait_uid[i + 1] if i + 1 < n_waits else -1
            stream = op.stream
            event = TraceEvent(
                op.name,
                "compute" if stream in COMPUTE_STREAMS else "comm",
                rank, stream, start[uid], end[uid], (),
                tags.get(uid, ()) if tags else ())
            record(event)
            events[uid] = event
        built.update(sim=sim, events=events, wait_events=tuple(waits))
        return built[name]


def _time_zero(rank: int, stream: str) -> float:
    return 0.0


def execute_graph(
    graph: StepGraph,
    sim: Optional[Simulator] = None,
    metrics: Optional[MetricsRegistry] = None,
    op_tags: Optional[Mapping[int, Tuple[str, ...]]] = None,
) -> GraphExecution:
    """Time a step graph; its timeline is built when first read.

    Args:
        graph: Lowered per-rank programs.
        sim: Simulator to record the timeline into, at once; each stream
            starts where this simulator has it.  By default the timeline
            goes into a fresh simulator on first read.
        metrics: Registry for op counts, op durations, and exposed-P2P
            wait seconds (keyed by PP rank).
        op_tags: Trace tags per op uid — how a fault-perturbed graph
            (:func:`repro.faults.inject.apply_fault_plan`) marks its
            rewritten ops ``"faulted"`` in the timeline.  Tagged ops are
            also counted in the ``faults.injected_ops`` metric.
    """
    programs = graph.programs
    n = sum(len(p) for p in programs)
    start = [0.0] * n
    end: List[Optional[float]] = [None] * n
    rank_of = [0] * n
    order: List[StepOp] = []
    append = order.append
    wait_uid: List[int] = []
    wait_start: List[float] = []
    wait_end: List[float] = []
    # Per-rank stream free times; a stream starts where ``sim`` has it.
    free: List[Dict[str, float]] = [{} for _ in programs]
    now = sim.now if sim is not None else _time_zero
    pointers = [0] * len(programs)
    executed = 0

    # The ready-list walk below visits ranks round-robin and runs each
    # rank's program as far as its dependencies allow.  The visiting
    # order — and therefore the submission order the timeline is built
    # in — is observable (traces and golden reports are byte-stable), so
    # the optimisations here (hoisted per-rank lookups, inlined
    # dependency checks) must never reorder submissions.
    while executed < n:
        progressed = False
        for rank, prog in enumerate(programs):
            ptr = pointers[rank]
            n_ops = len(prog)
            if ptr >= n_ops:
                continue
            rank_free = free[rank]
            while ptr < n_ops:
                op = prog[ptr]
                deps = op.deps
                ready = True
                for uid in deps:
                    if end[uid] is None:
                        ready = False
                        break
                if not ready:
                    break
                stream = op.stream
                at = rank_free.get(stream)
                if at is None:
                    at = now(rank, stream)
                if op.wait_name is not None:
                    # Exposed wait: the gap between the rank being ready
                    # (own stream free, local inputs done) and the
                    # cross-rank input arriving.  Each max keeps the
                    # first of equal ends, as ``max()`` does.
                    arrival = local_ready = None
                    for uid in deps:
                        dep_end = end[uid]
                        if rank_of[uid] != rank:
                            if arrival is None or dep_end > arrival:
                                arrival = dep_end
                        elif local_ready is None or dep_end > local_ready:
                            local_ready = dep_end
                    if arrival is None:
                        arrival = 0.0
                    if local_ready is None or at > local_ready:
                        local_ready = at
                    if arrival > local_ready:
                        wait_at = rank_free.get("wait")
                        if wait_at is None:
                            wait_at = now(rank, "wait")
                        if local_ready > wait_at:
                            wait_at = local_ready
                        wait_done = wait_at + (arrival - local_ready)
                        rank_free["wait"] = wait_done
                        wait_uid.append(op.uid)
                        wait_start.append(wait_at)
                        wait_end.append(wait_done)
                for uid in deps:
                    dep_end = end[uid]
                    if dep_end > at:
                        at = dep_end
                duration = op.duration
                if duration < 0:
                    raise ValueError(
                        f"negative duration for task {op.name!r}")
                uid = op.uid
                done = at + duration
                start[uid] = at
                end[uid] = done
                rank_of[uid] = rank
                rank_free[stream] = done
                append(op)
                ptr += 1
            if ptr != pointers[rank]:
                executed += ptr - pointers[rank]
                pointers[rank] = ptr
                progressed = True
        if not progressed:
            blocked = [
                (rank, prog[pointers[rank]].name)
                for rank, prog in enumerate(programs)
                if pointers[rank] < len(prog)
            ]
            raise RuntimeError(
                f"pipeline schedule deadlocked; blocked ops: {blocked}"
            )

    timing = GraphTiming(start=start, end=end, rank=rank_of, order=order,
                         wait_uid=wait_uid, wait_start=wait_start,
                         wait_end=wait_end, tags=op_tags or {})
    if metrics is not None:
        _record_metrics(metrics, timing)
    if sim is None:
        return GraphExecution(graph=graph, timing=timing)
    execution = GraphExecution(graph=graph, sim=sim, timing=timing)
    execution.events  # the caller's simulator gets the timeline now
    return execution


def _record_metrics(metrics: MetricsRegistry, timing: GraphTiming) -> None:
    """Write the executor's metrics, each label set accumulated in
    submission order (the order per-op updates would have used)."""
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

    start, end, rank_of, tags = (
        timing.start, timing.end, timing.rank, timing.tags)
    counts: Dict[Tuple[int, str], int] = {}
    seconds: Dict[str, List[float]] = {}
    for op in timing.order:
        pipeline_op = op.pipeline_op
        if pipeline_op is not None:
            uid = op.uid
            label = pipeline_op.kind.name.lower()
            key = (rank_of[uid], label)
            counts[key] = counts.get(key, 0) + 1
            seconds.setdefault(label, []).append(end[uid] - start[uid])
    for (rank, label), count in counts.items():
        op_count.inc(count, rank=rank, kind=label)
    for label, values in seconds.items():
        op_seconds.observe_many(values, kind=label)
    for uid, s, e in zip(timing.wait_uid, timing.wait_start, timing.wait_end):
        exposed_p2p.inc(e - s, rank=rank_of[uid])
    injected: Dict[int, int] = {}
    if tags:
        for op in timing.order:
            if tags.get(op.uid):
                rank = rank_of[op.uid]
                injected[rank] = injected.get(rank, 0) + 1
    for rank, count in injected.items():
        injected_ops.inc(count, rank=rank)


@dataclass(frozen=True)
class PipelineRun:
    """The one per-rank time record of an executed schedule or step.

    :func:`summarize_pipeline_execution` folds it from the timing in one
    pass; every per-rank figure (busy, comm, exposed wait, idle, bubble)
    and the step decomposition (:class:`repro.train.step.StepReport`) is
    derived from it.  The pipeline window runs from :attr:`start_time`
    to :attr:`makespan`; a rank is *occupied* for its compute plus TP,
    CP and EP communication, and idle for the rest of the window.
    """

    schedule: PipelineSchedule
    #: Simulator holding the run's timeline (built on first read when
    #: the run summarises an :func:`execute_graph` given no simulator).
    sim: Simulator = BuiltOnRead(required=True)
    #: Latest end time across the run's own pipeline events (a step
    #: timeline's FSDP/optimizer tail is *not* included — see
    #: :attr:`step_end`).
    makespan: float
    #: Per-rank **compute-only** busy seconds (communication is tallied
    #: separately in :attr:`per_rank_comm`).
    per_rank_busy: Tuple[float, ...]
    #: Per-rank communication seconds by kind ("tp", "cp", "ep", "p2p",
    #: "exposed_p2p", and "fsdp" for step timelines).
    per_rank_comm: Tuple[Dict[str, float], ...]
    #: Compute event of every executed op, for timeline verification
    #: (:mod:`repro.verify.invariants` checks send-before-recv against
    #: these without parsing event names).
    op_events: Optional[Dict[PipelineOp, TraceEvent]] = BuiltOnRead()
    #: P2P latency the run was executed with; None when unknown (e.g. a
    #: PipelineRun assembled outside execute_pipeline).
    p2p_seconds: Optional[float] = None
    #: Earliest pipeline compute start — nonzero when something (e.g. the
    #: first FSDP all-gather) delays the whole pipeline; bubble ratios
    #: measure idleness from here, not from t=0.
    start_time: float = 0.0
    #: Latest end of any op of the graph: the step time (0.0 when the
    #: run was not folded from a graph).
    step_end: float = 0.0
    #: Latest end of an FSDP gradient reduce-scatter; :attr:`makespan`
    #: when the graph has none (0.0 when not folded from a graph).
    reduce_scatter_end: float = 0.0
    #: The interpreted graph ``sim`` and ``op_events`` are built from
    #: when they were not passed.
    execution: Optional[GraphExecution] = field(
        default=None, repr=False, compare=False)

    def _build(self, name: str) -> object:
        execution = self.execution
        if execution is None:
            return None
        if name == "sim":
            return execution.sim
        events = execution.events
        return {op.pipeline_op: events[op.uid]
                for prog in execution.graph.programs for op in prog
                if op.stream == "compute" and op.pipeline_op is not None}

    @property
    def pp(self) -> int:
        return self.schedule.pp

    @property
    def per_rank_occupied(self) -> Tuple[float, ...]:
        """Compute plus TP/CP/EP communication per rank — the time a
        rank is *doing* pipeline work."""
        return tuple(
            busy + comm.get("tp", 0.0) + comm.get("cp", 0.0)
            + comm.get("ep", 0.0)
            for busy, comm in zip(self.per_rank_busy, self.per_rank_comm)
        )

    @property
    def per_rank_idle(self) -> Tuple[float, ...]:
        """The pipeline window minus each rank's occupied time."""
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
    """Fold an interpreted graph's pipeline region into a PipelineRun.

    Reads the timing only; the run's ``sim`` and ``op_events`` are the
    execution's timeline, built when first read.
    """
    pp = schedule.pp
    busy = [0.0] * pp
    comm: List[Dict[str, float]] = [{} for _ in range(pp)]
    makespan = 0.0
    start_time: Optional[float] = None
    reduce_scatter_end: Optional[float] = None
    timing = execution.timing
    start, end = timing.start, timing.end
    # Branch on the op's stream: COMPUTE is the only op on ``compute``,
    # the optimizer the only one on ``opt``, and every other stream is
    # communication keyed by its own name (see repro.train.lowering).
    for prog in execution.graph.programs:
        for op in prog:
            uid = op.uid
            op_start = start[uid]
            op_end = end[uid]
            stream = op.stream
            if stream == "compute":
                busy[op.rank] += op_end - op_start
                if start_time is None or op_start < start_time:
                    start_time = op_start
            elif stream not in COMPUTE_STREAMS:
                rank_comm = comm[op.rank]
                rank_comm[stream] = (
                    rank_comm.get(stream, 0.0) + (op_end - op_start))
                # The stream test is the cheap filter; all-gathers share it.
                if (stream == "fsdp"
                        and op.kind is StepOpKind.FSDP_REDUCESCATTER
                        and (reduce_scatter_end is None
                             or op_end > reduce_scatter_end)):
                    reduce_scatter_end = op_end
            if stream in PIPELINE_STREAMS and op_end > makespan:
                makespan = op_end
    for uid, wait_start, wait_end in zip(
            timing.wait_uid, timing.wait_start, timing.wait_end):
        rank_comm = comm[timing.rank[uid]]
        rank_comm["exposed_p2p"] = (
            rank_comm.get("exposed_p2p", 0.0) + (wait_end - wait_start))
        makespan = max(makespan, wait_end)
    return PipelineRun(
        schedule=schedule,
        sim=UNBUILT,
        makespan=makespan,
        per_rank_busy=tuple(busy),
        per_rank_comm=tuple(comm),
        p2p_seconds=p2p_seconds,
        start_time=start_time or 0.0,
        step_end=max(end, default=0.0),
        reduce_scatter_end=(makespan if reduce_scatter_end is None
                            else reduce_scatter_end),
        execution=execution,
    )


def execute_pipeline(
    schedule: PipelineSchedule,
    layout: PipelineLayout,
    forward_cost: CostFn,
    backward_cost: CostFn,
    p2p_seconds: float,
) -> PipelineRun:
    """Lower a schedule and execute its timeline.

    Args:
        schedule: The per-rank programs.
        layout: Layer placement (supplies each op's stage contents).
        forward_cost: Stage -> forward cost for one micro-batch.
        backward_cost: Stage -> backward cost for one micro-batch
            (split-backward schedules price BI and BW as its exact-sum
            split).
        p2p_seconds: Inter-stage activation/gradient transfer time.

    Whenever an op's cross-rank input arrives *after* the rank could have
    started it, the gap is recorded as an ``exposed_comm`` event on the
    rank's ``wait`` stream — those are exactly the Figure 3 bubbles, and
    the trace exporter surfaces them as their own category.
    """
    graph = lower_pipeline(
        schedule, layout, forward_cost, backward_cost, p2p_seconds)
    return summarize_pipeline_execution(
        execute_graph(graph), schedule, p2p_seconds)
