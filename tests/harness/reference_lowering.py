"""FROZEN reference lowering — the pre-single-construction step-graph passes, verbatim.

This module is the differential-testing oracle for the step-graph
passes: ``lower_pipeline`` and ``lower_step`` (with their ``_OpRec`` ->
``_freeze`` construction), the graph interpreter ``execute_graph``,
``summarize_pipeline_execution``, and ``track_memory``, exactly as the
repository shipped them before lowering built each op once.  The code
below each section banner is copied unchanged; only this header, the
imports, and the banners were added.  It keeps its own ``StepOp``,
``StepGraph``, ``MemorySample`` and ``MemoryTimeline`` types and shares
only the op-kind enums, the public kind tables, and the result
containers (``GraphExecution``, ``PipelineRun``) with the live code.
Do NOT edit it to track lowering changes — its whole value is that it
does not move.  ``tests/harness/test_lowering_differential.py`` lowers,
executes, summarises and memory-tracks a grid of schedules through both
and asserts bitwise equality of every op, sample and run field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.parallel.config import ZeroStage
from repro.pp.layout import PipelineLayout, StageAssignment
from repro.pp.schedule import (
    ACTIVATION_FREEING_KINDS,
    GRAD_PRODUCING_KINDS,
    OpKind,
    PipelineOp,
    PipelineSchedule,
)
from repro.sim.engine import Simulator, TraceEvent
from repro.train.cost import StageCost, split_backward_cost
from repro.train.executor import GraphExecution, PipelineRun
from repro.train.lowering import PIPELINE_KINDS, STREAM_OF_KIND, StepOpKind

CostFn = Callable[[StageAssignment], StageCost]


# ----------------------------------------------------------------------
# repro.train.lowering
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StepOp:
    """One typed op in a rank's program.

    Attributes:
        uid: Graph-wide unique id; ``deps`` reference these.
        kind: Typed category (also fixes the stream).
        rank: Pipeline rank executing the op.
        stream: Simulator stream the op occupies.
        duration: Priced execution time in seconds.
        name: Trace event name.
        deps: uids that must have executed before this op starts.
        pipeline_op: The schedule op a COMPUTE lowers, for timeline
            verification and per-op metrics.
        wait_name: When set, the interpreter records an ``exposed_comm``
            wait event of this name for any gap between the rank being
            ready and this op's cross-rank input arriving.
    """

    uid: int
    kind: StepOpKind
    rank: int
    stream: str
    duration: float
    name: str
    deps: Tuple[int, ...] = ()
    pipeline_op: Optional[PipelineOp] = None
    wait_name: Optional[str] = None


@dataclass(frozen=True)
class StepGraph:
    """Per-rank programs of typed ops with cross-rank dependency edges."""

    programs: Tuple[Tuple[StepOp, ...], ...]

    @property
    def pp(self) -> int:
        return len(self.programs)

    def ops(self) -> Iterator[StepOp]:
        for prog in self.programs:
            yield from prog

    def by_uid(self) -> Dict[int, StepOp]:
        return {op.uid: op for op in self.ops()}


@dataclass
class _OpRec:
    """Mutable op record during lowering; frozen into StepOp at the end."""

    kind: StepOpKind
    rank: int
    duration: float
    name: str
    deps: List["_OpRec"] = field(default_factory=list)
    pipeline_op: Optional[PipelineOp] = None
    wait_name: Optional[str] = None
    uid: int = -1


def _freeze(programs: List[List[_OpRec]]) -> StepGraph:
    uid = 0
    for prog in programs:
        for rec in prog:
            rec.uid = uid
            uid += 1
    return StepGraph(programs=tuple(
        tuple(
            StepOp(
                uid=rec.uid,
                kind=rec.kind,
                rank=rec.rank,
                stream=STREAM_OF_KIND[rec.kind],
                duration=rec.duration,
                name=rec.name,
                deps=tuple(d.uid for d in rec.deps),
                pipeline_op=rec.pipeline_op,
                wait_name=rec.wait_name,
            )
            for rec in prog
        )
        for prog in programs
    ))


@dataclass
class _Chains:
    """Intermediate chain bookkeeping shared by the two lowerings."""

    programs: List[List[_OpRec]]
    head: Dict[PipelineOp, _OpRec]
    compute: Dict[PipelineOp, _OpRec]


def _producer_key(
    op: PipelineOp, stage: int, last_stage: int
) -> Optional[Tuple[OpKind, int]]:
    """(kind, stage) whose output this op consumes cross-rank, if any.

    Forwards consume the previous stage's forward activation; backwards
    (monolithic B, or the input-grad half BI under split backward)
    consume the next stage's gradient of the same kind.  The weight-grad
    half BW is rank-local — it reads only the stage's own saved
    activations and the already-received gradient, so it has no
    cross-rank producer.
    """
    if op.kind is OpKind.FORWARD:
        return (OpKind.FORWARD, stage - 1) if stage > 0 else None
    if op.kind is OpKind.BACKWARD_WEIGHT:
        return None
    return (op.kind, stage + 1) if stage < last_stage else None


def _lower_chains(
    schedule: PipelineSchedule,
    layout: PipelineLayout,
    forward_cost: CostFn,
    backward_cost: CostFn,
    p2p_seconds: float,
    backward_input_cost: Optional[CostFn] = None,
    backward_weight_cost: Optional[CostFn] = None,
) -> _Chains:
    """Lower every pipeline op into its per-stream chain plus P2P sends.

    The chain ``tp:ag -> cp:kv -> ep:dispatch -> compute -> ep:combine
    -> tp:rs`` serializes through dependency edges (the EP links appear
    only for MoE stage costs), so its end-to-end span equals the sum of
    its piece durations — the same total the pre-graph executor folded
    into one event — while each piece occupies its own stream.  The send
    depends on the chain tail (the sequence-parallel reduce-scatter
    completes the activation before it can ship) and never blocks the
    producer's next op.
    """
    if layout.pp != schedule.pp or layout.v != schedule.shape.v:
        raise ValueError("layout and schedule disagree on pp or v")
    pp = schedule.pp
    last_stage = layout.num_stages - 1
    shape = schedule.shape
    hetero = shape.is_heterogeneous
    split = schedule.uses_split_backward

    fwd_cost: Dict[int, StageCost] = {}
    bwd_cost: Dict[int, StageCost] = {}
    bi_cost: Dict[int, StageCost] = {}
    bw_cost: Dict[int, StageCost] = {}
    for s in range(layout.num_stages):
        fwd_cost[s] = forward_cost(layout.stage(s))
        bwd_cost[s] = backward_cost(layout.stage(s))
        if split:
            # Explicit BI/BW pricing when the caller supplies it (the
            # CostModel's memoized halves); otherwise the exact-sum split
            # of the monolithic backward.
            if backward_input_cost is not None:
                bi_cost[s] = backward_input_cost(layout.stage(s))
            if backward_weight_cost is not None:
                bw_cost[s] = backward_weight_cost(layout.stage(s))
            if backward_input_cost is None or backward_weight_cost is None:
                bi, bw = split_backward_cost(bwd_cost[s])
                bi_cost.setdefault(s, bi)
                bw_cost.setdefault(s, bw)

    programs: List[List[_OpRec]] = [[] for _ in range(pp)]
    head: Dict[PipelineOp, _OpRec] = {}
    compute: Dict[PipelineOp, _OpRec] = {}
    sends: Dict[Tuple[OpKind, int, int], _OpRec] = {}

    kind_cost = {
        OpKind.FORWARD: fwd_cost,
        OpKind.BACKWARD: bwd_cost,
        OpKind.BACKWARD_INPUT: bi_cost,
        OpKind.BACKWARD_WEIGHT: bw_cost,
    }
    for ppr in range(pp):
        prev_tail: Optional[_OpRec] = None
        for op in schedule.program(ppr):
            stage = op.global_stage(pp)
            cost = kind_cost[op.kind][stage]
            compute_seconds = cost.compute_seconds
            if hetero:
                # Heterogeneous stages/micro-batches scale the compute
                # kernel only; comm volume is unchanged by FLOPs mix.
                compute_seconds *= shape.compute_scale(stage, op.microbatch)
            label = op.label(pp)
            chain: List[_OpRec] = []
            if cost.tp_comm_seconds > 0:
                chain.append(_OpRec(
                    StepOpKind.TP_ALLGATHER, ppr,
                    cost.tp_comm_seconds / 2, f"tp:ag:{label}"))
            if cost.cp_comm_seconds > 0:
                chain.append(_OpRec(
                    StepOpKind.CP_COMM, ppr,
                    cost.cp_comm_seconds, f"cp:kv:{label}"))
            if cost.ep_comm_seconds > 0:
                chain.append(_OpRec(
                    StepOpKind.MOE_DISPATCH, ppr,
                    cost.ep_comm_seconds / 2, f"ep:dispatch:{label}"))
            comp = _OpRec(StepOpKind.COMPUTE, ppr, compute_seconds,
                          label, pipeline_op=op)
            chain.append(comp)
            if cost.ep_comm_seconds > 0:
                chain.append(_OpRec(
                    StepOpKind.MOE_COMBINE, ppr,
                    cost.ep_comm_seconds / 2, f"ep:combine:{label}"))
            if cost.tp_comm_seconds > 0:
                chain.append(_OpRec(
                    StepOpKind.TP_REDUCESCATTER, ppr,
                    cost.tp_comm_seconds / 2, f"tp:rs:{label}"))
            for prev, cur in zip(chain, chain[1:]):
                cur.deps.append(prev)
            if prev_tail is not None:
                chain[0].deps.append(prev_tail)
            if _producer_key(op, stage, last_stage) is not None:
                chain[0].wait_name = f"p2p:wait:{label}"
            head[op] = chain[0]
            compute[op] = comp
            prev_tail = chain[-1]
            programs[ppr].extend(chain)
            # Does anyone consume this op's output cross-rank?  Forward
            # activations flow down, B/BI gradients flow up, and BW
            # weight gradients never leave the rank.
            if op.kind is OpKind.FORWARD:
                consumer_exists = stage < last_stage
            elif op.kind is OpKind.BACKWARD_WEIGHT:
                consumer_exists = False
            else:
                consumer_exists = stage > 0
            if consumer_exists:
                send = _OpRec(StepOpKind.P2P_SEND, ppr, p2p_seconds,
                              f"p2p:send:{label}", deps=[prev_tail])
                sends[(op.kind, stage, op.microbatch)] = send
                programs[ppr].append(send)

    # Second sweep: wire each consumer's chain head to its producer's send
    # (the producing rank may appear later in rank order).
    for ppr in range(pp):
        for op in schedule.program(ppr):
            key = _producer_key(op, op.global_stage(pp), last_stage)
            if key is None:
                continue
            send = sends.get((key[0], key[1], op.microbatch))
            if send is None:
                raise ValueError(
                    f"op {op.label(pp)} consumes "
                    f"{key[0].value}:mb{op.microbatch}:s{key[1]} "
                    "which no rank produces")
            head[op].deps.append(send)

    return _Chains(programs=programs, head=head, compute=compute)


def lower_pipeline(
    schedule: PipelineSchedule,
    layout: PipelineLayout,
    forward_cost: CostFn,
    backward_cost: CostFn,
    p2p_seconds: float,
    *,
    backward_input_cost: Optional[CostFn] = None,
    backward_weight_cost: Optional[CostFn] = None,
) -> StepGraph:
    """Lower a schedule's pipeline region (no FSDP/optimizer ops).

    Split-backward schedules price BI/BW ops from the optional cost
    callables, defaulting to the exact-sum split of ``backward_cost``.
    """
    return _freeze(_lower_chains(
        schedule, layout, forward_cost, backward_cost, p2p_seconds,
        backward_input_cost=backward_input_cost,
        backward_weight_cost=backward_weight_cost,
    ).programs)


def lower_step(
    schedule: PipelineSchedule,
    layout: PipelineLayout,
    forward_cost: CostFn,
    backward_cost: CostFn,
    p2p_seconds: float,
    *,
    zero: ZeroStage,
    fsdp_allgather_cost: Callable[[StageAssignment], float],
    fsdp_reduce_scatter_cost: Callable[[StageAssignment], float],
    optimizer_cost: Callable[[int], float],
    backward_input_cost: Optional[CostFn] = None,
    backward_weight_cost: Optional[CostFn] = None,
) -> StepGraph:
    """Lower one full optimizer step onto the graph.

    Beyond the pipeline chains, each rank's program gains:

    * **FSDP parameter all-gathers** on the ``fsdp`` stream, enqueued at
      the front of the program in first-use order — one per hosted stage
      (ZeRO-1/2: parameters stay gathered all step) or one per
      (stage, round) (ZeRO-3: re-gathered every round of ``nc``
      micro-batches).  The first compute of each stage (or round) depends
      on its gather, so only gathers the stream cannot prefetch in time
      show up as exposed head time (Section 7.3.1).
    * **Gradient reduce-scatters**, one per hosted stage, each depending
      on the stage's last backward — they drain on the ``fsdp`` stream
      under whatever pipeline work remains, and only the final one's tail
      is exposed.
    * **The optimizer**, depending on every reduce-scatter of the rank.

    Args:
        zero: ZeRO mode; fixes the all-gather cadence.
        fsdp_allgather_cost: Stage -> one parameter all-gather in seconds.
        fsdp_reduce_scatter_cost: Stage -> one gradient reduce-scatter.
        optimizer_cost: Pipeline rank -> optimizer step in seconds.
    """
    chains = _lower_chains(
        schedule, layout, forward_cost, backward_cost, p2p_seconds,
        backward_input_cost=backward_input_cost,
        backward_weight_cost=backward_weight_cost)
    pp = schedule.pp
    nc = schedule.shape.nc
    per_round = zero is ZeroStage.ZERO_3

    for ppr in range(pp):
        prog = schedule.program(ppr)

        # Parameter all-gathers, in order of each key's first use.
        first_use: Dict[Tuple[int, Optional[int]], PipelineOp] = {}
        for op in prog:
            key = (op.global_stage(pp),
                   op.microbatch // nc if per_round else None)
            first_use.setdefault(key, op)
        ag_recs: List[_OpRec] = []
        for (stage, rnd), op in first_use.items():
            name = (f"fsdp:ag:s{stage}:r{rnd}" if rnd is not None
                    else f"fsdp:ag:s{stage}")
            ag = _OpRec(StepOpKind.FSDP_ALLGATHER, ppr,
                        fsdp_allgather_cost(layout.stage(stage)), name)
            ag_recs.append(ag)
            chains.compute[op].deps.append(ag)
        chains.programs[ppr] = ag_recs + chains.programs[ppr]

        # Gradient reduce-scatters after each stage's last backward,
        # ordered by that backward's program position (the interpreter
        # walks each program in order, so an earlier-listed reduce-scatter
        # must not wait on a later backward).
        # Under split backward the weight gradient is only complete once
        # the BW half has run, so BW (not BI) gates the reduce-scatter.
        last_backward: Dict[int, Tuple[int, PipelineOp]] = {}
        for idx, op in enumerate(prog):
            if op.kind in GRAD_PRODUCING_KINDS:
                last_backward[op.global_stage(pp)] = (idx, op)
        rs_recs = [
            _OpRec(StepOpKind.FSDP_REDUCESCATTER, ppr,
                   fsdp_reduce_scatter_cost(layout.stage(stage)),
                   f"fsdp:rs:s{stage}", deps=[chains.compute[op]])
            for stage, (_, op) in sorted(
                last_backward.items(), key=lambda kv: kv[1][0])
        ]
        chains.programs[ppr].extend(rs_recs)

        chains.programs[ppr].append(_OpRec(
            StepOpKind.OPTIMIZER, ppr, optimizer_cost(ppr), "optimizer",
            deps=list(rs_recs)))

    return _freeze(chains.programs)


# ----------------------------------------------------------------------
# repro.train.executor
# ----------------------------------------------------------------------

#: Simulator event kind for each op kind: computation occupies its stream
#: as ``compute``; priced communication is ``comm`` (overlap with compute
#: is what the timeline decides); synthesized waits are ``exposed_comm``.
_EVENT_KIND = {
    StepOpKind.COMPUTE: "compute",
    StepOpKind.OPTIMIZER: "compute",
}

#: per_rank_comm key for each communication op kind.
_COMM_KEY = {
    StepOpKind.TP_ALLGATHER: "tp",
    StepOpKind.TP_REDUCESCATTER: "tp",
    StepOpKind.CP_COMM: "cp",
    StepOpKind.MOE_DISPATCH: "ep",
    StepOpKind.MOE_COMBINE: "ep",
    StepOpKind.P2P_SEND: "p2p",
    StepOpKind.FSDP_ALLGATHER: "fsdp",
    StepOpKind.FSDP_REDUCESCATTER: "fsdp",
}


def execute_graph(
    graph: StepGraph,
    sim: Optional[Simulator] = None,
    start_times: Optional[Mapping[int, float]] = None,
    rank_compute_scale: Optional[Mapping[int, float]] = None,
    metrics: Optional[MetricsRegistry] = None,
    op_tags: Optional[Mapping[int, Tuple[str, ...]]] = None,
) -> GraphExecution:
    """Interpret a step graph onto the simulator.

    Args:
        graph: Lowered per-rank programs.
        sim: Simulator to record into (a fresh one by default).
        start_times: Optional per-rank earliest start applied to every op
            of the rank (models an externally-imposed release time).
        rank_compute_scale: Per-rank COMPUTE-duration multipliers (>= 1
            for a throttled GPU) — fault injection for the Section 8.1
            performance-variation experiments.  Communication durations
            are deliberately not scaled.
        metrics: Registry for op counts, op durations, and exposed-P2P
            wait seconds (keyed by PP rank).
        op_tags: Trace tags per op uid — how a fault-perturbed graph
            (:func:`repro.faults.inject.apply_fault_plan`) marks its
            rewritten ops ``"faulted"`` in the timeline.  Tagged ops are
            also counted in the ``faults.injected_ops`` metric.
    """
    if rank_compute_scale and any(
        s <= 0 for s in rank_compute_scale.values()
    ):
        raise ValueError("rank_compute_scale factors must be positive")
    sim = sim or Simulator()
    start_times = start_times or {}
    rank_compute_scale = rank_compute_scale or {}
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
            scale = rank_compute_scale.get(rank, 1.0)
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
                duration = op.duration
                if op.kind is StepOpKind.COMPUTE:
                    duration *= scale
                tags = op_tags.get(op.uid, ()) if has_tags else ()
                event = run(
                    rank=rank,
                    stream=op.stream,
                    duration=duration,
                    name=op.name,
                    kind=_EVENT_KIND.get(op.kind, "comm"),
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
    for op in execution.graph.ops():
        event = execution.events[op.uid]
        if op.kind is StepOpKind.COMPUTE:
            busy[op.rank] += event.duration
            if op.pipeline_op is not None:
                op_events[op.pipeline_op] = event
            if start_time is None or event.start < start_time:
                start_time = event.start
        elif op.kind in _COMM_KEY:
            key = _COMM_KEY[op.kind]
            comm[op.rank][key] = comm[op.rank].get(key, 0.0) + event.duration
        if op.kind in PIPELINE_KINDS:
            makespan = max(makespan, event.end)
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


# ----------------------------------------------------------------------
# repro.pp.grad_memory
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MemorySample:
    """Memory state after one schedule op on one rank."""

    op_index: int
    op_label: str
    grad_bytes: float
    activation_bytes: float
    reduce_scatter_launched: bool

    @property
    def total(self) -> float:
        return self.grad_bytes + self.activation_bytes


@dataclass(frozen=True)
class MemoryTimeline:
    """Full per-op memory trajectory for one rank."""

    ppr: int
    zero: ZeroStage
    samples: Tuple[MemorySample, ...]
    reduce_scatter_count: int

    @property
    def peak_grad_bytes(self) -> float:
        return max((s.grad_bytes for s in self.samples), default=0.0)

    @property
    def peak_activation_bytes(self) -> float:
        return max((s.activation_bytes for s in self.samples), default=0.0)

    @property
    def peak_total_bytes(self) -> float:
        return max((s.total for s in self.samples), default=0.0)


def track_memory(
    schedule: PipelineSchedule,
    ppr: int,
    zero: ZeroStage,
    grad_bytes_per_stage: float = 1.0,
    act_bytes_per_microbatch: float = 1.0,
    shard_degree: int = 8,
    stage_weights: Optional[Dict[int, float]] = None,
) -> MemoryTimeline:
    """Walk one rank's program and record the memory trajectory.

    Args:
        schedule: Any pipeline schedule.
        ppr: The rank to track.
        zero: FSDP sharding mode (ZeRO-1 or ZeRO-2; ZeRO-3's gradient
            behaviour matches ZeRO-2).
        grad_bytes_per_stage: Unsharded gradient-buffer bytes of one
            virtual stage (scaled per stage by ``stage_weights``).
        act_bytes_per_microbatch: Activation bytes saved by one forward of
            one virtual stage (scaled per stage by ``stage_weights``).
        shard_degree: DP x CP group size; the resharded buffer is
            ``1/shard_degree`` of the unsharded one.
        stage_weights: Optional per-virtual-stage multiplier (e.g. layer
            counts from a :class:`~repro.pp.layout.PipelineLayout`),
            keyed by local virtual-stage index.
    """
    if shard_degree < 1:
        raise ValueError("shard_degree must be >= 1")
    shape = schedule.shape
    program = schedule.program(ppr)
    weights = stage_weights or {}

    # Precompute, per virtual stage, the index within the program of the
    # backward that ends each consecutive run of micro-batches (ZeRO-2's
    # reduce-scatter points) and of the final backward (ZeRO-1's single
    # reduce-scatter point).
    # Under split backward the weight gradient materialises at BW, so
    # grad-producing ops (B, or BW) drive reduce-scatter placement while
    # activation-freeing ops (B, or BI) drive the activation curve.
    bwd_positions: Dict[int, List[int]] = {vs: [] for vs in range(shape.v)}
    for idx, op in enumerate(program):
        if op.kind in GRAD_PRODUCING_KINDS:
            bwd_positions[op.virtual_stage].append(idx)
    rs_points: Dict[int, set] = {vs: set() for vs in range(shape.v)}
    for vs, positions in bwd_positions.items():
        if not positions:
            continue
        if zero is ZeroStage.ZERO_1:
            rs_points[vs].add(positions[-1])
        else:
            # End of each run of backwards of this stage uninterrupted by
            # another backward of the same stage: runs are delimited by
            # other ops in between only if a *different* stage's backward
            # intervenes.  Detect runs over the backward subsequence.
            bwd_seq = [i for i, op in enumerate(program)
                       if op.kind in GRAD_PRODUCING_KINDS]
            stage_of = {i: program[i].virtual_stage for i in bwd_seq}
            for j, idx in enumerate(bwd_seq):
                if stage_of[idx] != vs:
                    continue
                is_last_of_run = (
                    j + 1 >= len(bwd_seq) or stage_of[bwd_seq[j + 1]] != vs
                )
                if is_last_of_run:
                    rs_points[vs].add(idx)

    grad_state: Dict[int, str] = {}  # vs -> "unsharded" | "sharded"
    act_in_flight: Dict[int, int] = {vs: 0 for vs in range(shape.v)}
    samples: List[MemorySample] = []
    rs_count = 0

    def stage_scale(vs: int) -> float:
        return weights.get(vs, 1.0)

    def grad_total() -> float:
        total = 0.0
        for vs, state in grad_state.items():
            size = grad_bytes_per_stage * stage_scale(vs)
            total += size if state == "unsharded" else size / shard_degree
        return total

    def act_total() -> float:
        return sum(
            act_bytes_per_microbatch * stage_scale(vs) * count
            for vs, count in act_in_flight.items()
        )

    for idx, op in enumerate(program):
        launched_rs = False
        if op.kind is OpKind.FORWARD:
            act_in_flight[op.virtual_stage] += 1
        if op.kind in ACTIVATION_FREEING_KINDS:
            act_in_flight[op.virtual_stage] -= 1
            if act_in_flight[op.virtual_stage] < 0:
                raise ValueError(
                    f"rank {ppr}: backward without live forward at op {idx}"
                )
        if op.kind in GRAD_PRODUCING_KINDS:
            if grad_state.get(op.virtual_stage) != "unsharded":
                grad_state[op.virtual_stage] = "unsharded"
            if idx in rs_points[op.virtual_stage]:
                launched_rs = True
                rs_count += 1
                if zero is not ZeroStage.ZERO_1:
                    grad_state[op.virtual_stage] = "sharded"
        samples.append(
            MemorySample(
                op_index=idx,
                op_label=op.label(shape.pp),
                grad_bytes=grad_total(),
                activation_bytes=act_total(),
                reduce_scatter_launched=launched_rs,
            )
        )

    return MemoryTimeline(
        ppr=ppr, zero=zero, samples=tuple(samples),
        reduce_scatter_count=rs_count,
    )
