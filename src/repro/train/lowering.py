"""Lowering: from (schedule, layout, costs) to a typed step graph.

The step graph is the IR between schedule *structure* and timeline
*execution* (see ``docs/step_graph.md``).  Lowering turns every pipeline
op into a small chain of typed :class:`StepOp`s — TP all-gather, CP KV
all-gather, the MoE token-dispatch all-to-all (EP ranks only), the
compute kernel, the combine all-to-all, TP reduce-scatter, and an
asynchronous P2P send toward the consuming stage — each individually
priced, plus (for a full step) FSDP parameter all-gathers, gradient
reduce-scatters, and the optimizer.  Ops carry explicit dependency edges
by uid; the interpreter in :mod:`repro.train.executor` replays them onto
dedicated simulator streams (``compute``, ``tp``, ``cp``, ``ep``,
``p2p``, ``fsdp``, ``opt``), so communication/computation overlap — or
its failure — is an *outcome* of the timeline rather than an assumption
baked into scalar arithmetic.

Two lowerings are provided:

* :func:`lower_pipeline` — just the pipeline region (what
  ``execute_pipeline`` runs): per-op chains and P2P sends.
* :func:`lower_step` — a whole optimizer step (what ``simulate_step``
  runs): the pipeline region plus FSDP parameter all-gathers queued from
  t=0 on the ``fsdp`` stream (prefetch; the stream serializes them, so
  only the first is exposed when compute is long enough — Section
  7.3.1), per-stage gradient reduce-scatters after each stage's last
  backward, and the optimizer once every reduce-scatter on the rank has
  finished.

Ops are built once and never change.  Lowering first plans every rank's
program positions (so each op's uid, and the uid of every send a later
rank produces, is known up front), then constructs each :class:`StepOp`
exactly once with its final uid, stream, name and complete dependency
tuple.  A rewrite such as fault injection derives new ops with
``op._replace(...)`` and leaves the lowered graph untouched.

Simplifications, stated so they can be revisited: prefetch depth is
unbounded (all parameter all-gathers are enqueued up front; real FSDP
caps in-flight gathers to bound memory), and under ZeRO-3 one all-gather
per (stage, round) covers both the forward and the backward of that
round's micro-batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.parallel.config import ZeroStage
from repro.pp.layout import PipelineLayout, StageAssignment
from repro.pp.schedule import (
    GRAD_PRODUCING_KINDS,
    OpKind,
    PipelineOp,
    PipelineSchedule,
)
from repro.train.cost import StageCost, split_backward_cost

CostFn = Callable[[StageAssignment], StageCost]


class StepOpKind(Enum):
    """Typed op categories; each maps to one simulator stream."""

    COMPUTE = "compute"
    TP_ALLGATHER = "tp_allgather"
    TP_REDUCESCATTER = "tp_reducescatter"
    CP_COMM = "cp_comm"
    MOE_DISPATCH = "moe_dispatch"
    MOE_COMBINE = "moe_combine"
    P2P_SEND = "p2p_send"
    FSDP_ALLGATHER = "fsdp_allgather"
    FSDP_REDUCESCATTER = "fsdp_reducescatter"
    OPTIMIZER = "optimizer"


#: Stream each op kind executes on.  The stream is the one per-kind fact
#: the rest of the stack keys on (see the two sets below).
STREAM_OF_KIND: Dict[StepOpKind, str] = {
    StepOpKind.COMPUTE: "compute",
    StepOpKind.TP_ALLGATHER: "tp",
    StepOpKind.TP_REDUCESCATTER: "tp",
    StepOpKind.CP_COMM: "cp",
    StepOpKind.MOE_DISPATCH: "ep",
    StepOpKind.MOE_COMBINE: "ep",
    StepOpKind.P2P_SEND: "p2p",
    StepOpKind.FSDP_ALLGATHER: "fsdp",
    StepOpKind.FSDP_REDUCESCATTER: "fsdp",
    StepOpKind.OPTIMIZER: "opt",
}

#: Streams whose ops the simulator records as computation (event kind
#: ``"compute"``).  Every other stream carries priced communication: its
#: ops are ``"comm"`` events, and the stream name is the op's
#: :attr:`~repro.train.executor.PipelineRun.per_rank_comm` key.
COMPUTE_STREAMS = frozenset({"compute", "opt"})

#: Streams of the pipeline region of a step timeline; the ``fsdp`` and
#: ``opt`` streams hold the step's head and tail around it.
PIPELINE_STREAMS = frozenset({"compute", "tp", "cp", "ep", "p2p"})

#: Op kinds that belong to the pipeline region of a step timeline.
PIPELINE_KINDS = frozenset(
    kind for kind, stream in STREAM_OF_KIND.items()
    if stream in PIPELINE_STREAMS)


class StepOp(NamedTuple):
    """One typed op in a rank's program.

    Immutable: lowering builds each op once, in final form, and assigning
    to a field raises.  Derive a changed op with ``op._replace(...)``.

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


#: Pipeline op kinds, in the order their chain specs are indexed.
_PIPELINE_OP_KINDS = (OpKind.FORWARD, OpKind.BACKWARD,
                      OpKind.BACKWARD_INPUT, OpKind.BACKWARD_WEIGHT)

#: Stage offset each kind's output travels to on another rank: forward
#: activations flow down the pipeline and B/BI input gradients flow up.
#: BW weight gradients never leave the rank: BW reads only the stage's
#: own saved activations and the already-received gradient, so it has no
#: cross-rank producer or consumer.
_FLOW = {OpKind.FORWARD: 1, OpKind.BACKWARD: -1,
         OpKind.BACKWARD_INPUT: -1, OpKind.BACKWARD_WEIGHT: 0}


class _ChainSpec(NamedTuple):
    """Everything lowering needs for one (op kind, stage), priced once."""

    tp_half: float
    cp: float
    ep_half: float
    compute: float
    #: Trace label around the micro-batch number: ``"F:mb"``, ``":s3"``.
    label_prefix: str
    label_suffix: str
    #: Index of this spec, and of the spec whose send this chain consumes
    #: (-1: no cross-rank producer).
    index: int
    producer: int
    sends: bool
    produces_grad: bool
    #: Ops in the chain (the send excluded).
    length: int


def _chain_specs(
    schedule: PipelineSchedule,
    layout: PipelineLayout,
    forward_cost: CostFn,
    backward_cost: CostFn,
    backward_input_cost: Optional[CostFn],
    backward_weight_cost: Optional[CostFn],
) -> Tuple[List[_ChainSpec], ...]:
    """Chain specs per stage for F, B, BI and BW (BI/BW only under split
    backward), each list indexed by global stage."""
    num_stages = layout.num_stages
    last_stage = num_stages - 1
    split = schedule.uses_split_backward
    costs: Tuple[List[StageCost], ...] = ([], [], [], [])
    for s in range(num_stages):
        stage = layout.stage(s)
        costs[0].append(forward_cost(stage))
        costs[1].append(backward_cost(stage))
        if split:
            # Explicit BI/BW pricing when the caller supplies it (the
            # CostModel's memoized halves); otherwise the exact-sum split
            # of the monolithic backward.
            bi = bw = None
            if backward_input_cost is not None:
                bi = backward_input_cost(stage)
            if backward_weight_cost is not None:
                bw = backward_weight_cost(stage)
            if bi is None or bw is None:
                split_bi, split_bw = split_backward_cost(costs[1][s])
                bi = split_bi if bi is None else bi
                bw = split_bw if bw is None else bw
            costs[2].append(bi)
            costs[3].append(bw)

    specs: Tuple[List[_ChainSpec], ...] = ([], [], [], [])
    for k, kind in enumerate(_PIPELINE_OP_KINDS):
        flow = _FLOW[kind]
        for s, cost in enumerate(costs[k]):
            producer = s - flow
            consumer = s + flow
            length = 1
            if cost.tp_comm_seconds > 0:
                length += 2
            if cost.cp_comm_seconds > 0:
                length += 1
            if cost.ep_comm_seconds > 0:
                length += 2
            specs[k].append(_ChainSpec(
                tp_half=cost.tp_comm_seconds / 2,
                cp=cost.cp_comm_seconds,
                ep_half=cost.ep_comm_seconds / 2,
                compute=cost.compute_seconds,
                label_prefix=f"{kind.value}:mb",
                label_suffix=f":s{s}",
                index=k * num_stages + s,
                producer=(k * num_stages + producer
                          if flow and 0 <= producer <= last_stage else -1),
                sends=bool(flow) and 0 <= consumer <= last_stage,
                produces_grad=kind in GRAD_PRODUCING_KINDS,
                length=length,
            ))
    return specs


@dataclass(frozen=True)
class _StepCosts:
    """The step-only pricing :func:`lower_step` adds to the pipeline."""

    zero: ZeroStage
    fsdp_allgather: Callable[[StageAssignment], float]
    fsdp_reduce_scatter: Callable[[StageAssignment], float]
    optimizer: Callable[[int], float]


class _RankPlan(NamedTuple):
    """Pass-one result for one rank: what pass two emits, and where."""

    specs: List[_ChainSpec]
    #: (stage, round) -> program index of its first use (step only).
    first_use: Dict[Tuple[int, Optional[int]], int]
    #: stage -> program index of its last grad-producing op (step only).
    last_backward: Dict[int, int]
    #: uid of the rank's first op, and of its first pipeline-chain op.
    offset: int
    chain_base: int


def _lower(
    schedule: PipelineSchedule,
    layout: PipelineLayout,
    forward_cost: CostFn,
    backward_cost: CostFn,
    p2p_seconds: float,
    backward_input_cost: Optional[CostFn],
    backward_weight_cost: Optional[CostFn],
    step: Optional[_StepCosts],
) -> StepGraph:
    """Lower every pipeline op into its per-stream chain plus P2P sends,
    and (given ``step``) the FSDP gathers, reduce-scatters and optimizer.

    The chain ``tp:ag -> cp:kv -> ep:dispatch -> compute -> ep:combine
    -> tp:rs`` serializes through dependency edges (the EP links appear
    only for MoE stage costs), so its end-to-end span equals the sum of
    its piece durations — the same total the pre-graph executor folded
    into one event — while each piece occupies its own stream.  The send
    depends on the chain tail (the sequence-parallel reduce-scatter
    completes the activation before it can ship) and never blocks the
    producer's next op.

    Pass one walks each program once to fix every op's position: the
    uid of each rank's first op and of every P2P send, keyed by (spec
    index, micro-batch) — a consumer's producer may sit on a later rank.
    Pass two builds each op once, in final form.
    """
    if layout.pp != schedule.pp or layout.v != schedule.shape.v:
        raise ValueError("layout and schedule disagree on pp or v")
    pp = schedule.pp
    shape = schedule.shape
    hetero = shape.is_heterogeneous
    fwd_specs, bwd_specs, bi_specs, bw_specs = _chain_specs(
        schedule, layout, forward_cost, backward_cost,
        backward_input_cost, backward_weight_cost)
    forward = OpKind.FORWARD
    backward = OpKind.BACKWARD
    backward_input = OpKind.BACKWARD_INPUT
    nc = shape.nc
    per_round = step is not None and step.zero is ZeroStage.ZERO_3

    # Pass one: positions.  A send's position is kept as (rank, index in
    # the rank's pipeline region) until every rank's offset is known.
    plans: List[_RankPlan] = []
    sends: Dict[Tuple[int, int], Tuple[int, int]] = {}
    offset = 0
    for ppr in range(pp):
        specs: List[_ChainSpec] = []
        first_use: Dict[Tuple[int, Optional[int]], int] = {}
        last_backward: Dict[int, int] = {}
        pos = 0
        for idx, op in enumerate(schedule.program(ppr)):
            stage = op.virtual_stage * pp + op.ppr
            kind = op.kind
            if kind is forward:
                spec = fwd_specs[stage]
            elif kind is backward:
                spec = bwd_specs[stage]
            elif kind is backward_input:
                spec = bi_specs[stage]
            else:
                spec = bw_specs[stage]
            specs.append(spec)
            pos += spec.length
            if spec.sends:
                sends[(spec.index, op.microbatch)] = (ppr, pos)
                pos += 1
            if step is not None:
                first_use.setdefault(
                    (stage, op.microbatch // nc if per_round else None),
                    idx)
                if spec.produces_grad:
                    last_backward[stage] = idx
        chain_base = offset + len(first_use)
        plans.append(_RankPlan(specs, first_use, last_backward, offset,
                               chain_base))
        offset = chain_base + pos
        if step is not None:
            offset += len(last_backward) + 1
    chain_bases = [plan.chain_base for plan in plans]

    # Pass two: build every op once.  ``new(StepOp, fields)`` is the
    # tuple constructor without the keyword-argument frame.
    new = tuple.__new__
    programs: List[Tuple[StepOp, ...]] = []
    for ppr, plan in enumerate(plans):
        prog = schedule.program(ppr)
        ops: List[StepOp] = []
        emit = ops.append
        uid = plan.offset
        gather_uid: Dict[int, int] = {}
        for (stage, rnd), idx in plan.first_use.items():
            name = (f"fsdp:ag:s{stage}:r{rnd}" if rnd is not None
                    else f"fsdp:ag:s{stage}")
            emit(new(StepOp, (
                uid, StepOpKind.FSDP_ALLGATHER, ppr, "fsdp",
                step.fsdp_allgather(layout.stage(stage)), name, (), None,
                None)))
            gather_uid[idx] = uid
            uid += 1

        compute_uids: List[int] = []
        tail: Tuple[int, ...] = ()
        for idx, (op, spec) in enumerate(zip(prog, plan.specs)):
            (tp_half, cp, ep_half, compute, prefix, suffix, _,
             producer, sends_out, _, _) = spec
            mb = op.microbatch
            label = f"{prefix}{mb}{suffix}"
            deps = tail
            wait = None
            if producer >= 0:
                found = sends.get((producer, mb))
                if found is None:
                    raise ValueError(
                        f"op {label} consumes {prefix}{mb}"
                        f":s{producer % layout.num_stages}"
                        " which no rank produces")
                deps += (chain_bases[found[0]] + found[1],)
                wait = f"p2p:wait:{label}"
            if tp_half > 0:
                emit(new(StepOp, (uid, StepOpKind.TP_ALLGATHER, ppr, "tp",
                                  tp_half, f"tp:ag:{label}", deps, None,
                                  wait)))
                deps = (uid,)
                wait = None
                uid += 1
            if cp > 0:
                emit(new(StepOp, (uid, StepOpKind.CP_COMM, ppr, "cp", cp,
                                  f"cp:kv:{label}", deps, None, wait)))
                deps = (uid,)
                wait = None
                uid += 1
            if ep_half > 0:
                emit(new(StepOp, (uid, StepOpKind.MOE_DISPATCH, ppr, "ep",
                                  ep_half, f"ep:dispatch:{label}", deps,
                                  None, wait)))
                deps = (uid,)
                wait = None
                uid += 1
            if idx in gather_uid:
                deps += (gather_uid[idx],)
            if hetero:
                # Heterogeneous stages/micro-batches scale the compute
                # kernel only; comm volume is unchanged by FLOPs mix.
                compute *= shape.compute_scale(
                    op.virtual_stage * pp + op.ppr, mb)
            emit(new(StepOp, (uid, StepOpKind.COMPUTE, ppr, "compute",
                              compute, label, deps, op, wait)))
            compute_uids.append(uid)
            uid += 1
            if ep_half > 0:
                emit(new(StepOp, (uid, StepOpKind.MOE_COMBINE, ppr, "ep",
                                  ep_half, f"ep:combine:{label}",
                                  (uid - 1,), None, None)))
                uid += 1
            if tp_half > 0:
                emit(new(StepOp, (uid, StepOpKind.TP_REDUCESCATTER, ppr,
                                  "tp", tp_half, f"tp:rs:{label}",
                                  (uid - 1,), None, None)))
                uid += 1
            tail = (uid - 1,)
            if sends_out:
                emit(new(StepOp, (uid, StepOpKind.P2P_SEND, ppr, "p2p",
                                  p2p_seconds, f"p2p:send:{label}", tail,
                                  None, None)))
                uid += 1

        if step is not None:
            # Gradient reduce-scatters after each stage's last backward,
            # ordered by that backward's program position (the
            # interpreter walks each program in order, so an
            # earlier-listed reduce-scatter must not wait on a later
            # backward).  Under split backward the weight gradient is only
            # complete once the BW half has run, so BW (not BI) gates the
            # reduce-scatter.
            rs_uids = []
            for stage, idx in sorted(plan.last_backward.items(),
                                     key=lambda item: item[1]):
                emit(new(StepOp, (
                    uid, StepOpKind.FSDP_REDUCESCATTER, ppr, "fsdp",
                    step.fsdp_reduce_scatter(layout.stage(stage)),
                    f"fsdp:rs:s{stage}", (compute_uids[idx],), None, None)))
                rs_uids.append(uid)
                uid += 1
            emit(new(StepOp, (uid, StepOpKind.OPTIMIZER, ppr, "opt",
                              step.optimizer(ppr), "optimizer",
                              tuple(rs_uids), None, None)))
        programs.append(tuple(ops))
    return StepGraph(programs=tuple(programs))


def lower_pipeline(
    schedule: PipelineSchedule,
    layout: PipelineLayout,
    forward_cost: CostFn,
    backward_cost: CostFn,
    p2p_seconds: float,
) -> StepGraph:
    """Lower a schedule's pipeline region (no FSDP/optimizer ops).

    Split-backward schedules price BI/BW ops as the exact-sum split of
    ``backward_cost``.
    """
    return _lower(schedule, layout, forward_cost, backward_cost,
                  p2p_seconds, None, None, step=None)


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
    return _lower(schedule, layout, forward_cost, backward_cost,
                  p2p_seconds, backward_input_cost, backward_weight_cost,
                  step=_StepCosts(zero, fsdp_allgather_cost,
                                  fsdp_reduce_scatter_cost, optimizer_cost))
