"""Schedule and timeline invariant checkers.

Every checker takes a :class:`~repro.pp.schedule.PipelineSchedule` and/or
an executed :class:`~repro.train.executor.PipelineRun` and returns a list
of :class:`Violation` — empty means the invariant holds.  Checkers never
raise on a bad schedule; they *describe* what is wrong, so the fuzzer can
shrink a failing configuration and the CLI can report it as structured
JSON.

The catalog (paper anchors in parentheses):

``stream-overlap``
    No two events overlap on one (rank, stream) — each stream is one
    serially-executing CUDA stream.
``conservation``
    Every (global stage, micro-batch) pair is executed exactly once per
    direction, on the rank that hosts the stage.
``program-order``
    Within one rank's program, a micro-batch's backward never precedes
    its forward on the same virtual stage.
``send-before-recv``
    In the executed timeline, an op starts no earlier than its cross-rank
    producer finished plus the P2P latency (the Figure 3 dependency
    structure).
``warmup-depth``
    Warm-up forwards before each rank's first backward match the Section
    3.1.1 formula ``(v-1)*nc + 2*(pp-ppr-1)`` (plus the steady-state
    forward, capped at the total); all-forward-all-backward schedules —
    including the ``nc < pp`` degeneration — warm up with the whole batch.
``zero-schedule``
    The ZeRO mode pairs with the schedule family per Section 3.1.3:
    ZeRO-1 + 1F1B when ``bs >= 2 * pp``, ZeRO-2 + AFAB otherwise.
``deadlock`` / ``executor-error``
    Emitted by the fuzz harness when executing a schedule raises instead
    of completing (the executor doubles as a deadlock detector).

Step-graph timeline invariants (:func:`run_step_invariants`, over a
lowered :class:`~repro.train.lowering.StepGraph` and its executed
events):

``step-dep-ordering``
    Every executed op starts no earlier than each of its graph
    dependencies finished.
``fsdp-allgather-before-use``
    A virtual stage's parameter all-gather completes before the stage's
    first compute of the matching round starts (Section 7.3.1 prefetch
    correctness).
``fsdp-reduce-after-backward``
    A stage's gradient reduce-scatter starts only after the stage's last
    backward finished.
``optimizer-after-reduce``
    Each rank's optimizer starts after every reduce-scatter on the rank.
``fsdp-zero-pairing``
    ZeRO-3 re-gathers parameters once per round per stage; ZeRO-1/2
    gather exactly once per stage (Section 3.1.3 on the timeline).
``critical-path-makespan``
    The extracted critical path tiles the timeline exactly: it starts at
    t=0, every link is bitwise contiguous (``next.start == prev.end``),
    and it ends at the step makespan — so path durations sum to the
    ``simulate_step`` step time with no float slop (the
    :mod:`repro.analysis.critical_path` exactness guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.parallel.config import ZeroStage
from repro.pp.analysis import degenerates_to_afab, warmup_microbatches
from repro.pp.registry import entry_for_name
from repro.pp.schedule import (
    GRAD_PRODUCING_KINDS,
    OpKind,
    PipelineOp,
    PipelineSchedule,
)
from repro.sim.engine import TraceEvent
from repro.train.executor import PipelineRun
from repro.train.lowering import StepGraph, StepOp, StepOpKind

#: Absolute slack for floating-point time comparisons.
_EPS = 1e-9

#: Schedule names that are all-forward-all-backward by construction.
_AFAB_NAMES = ("afab", "flexible-degenerate-afab")


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to reproduce it.

    Attributes:
        check: Catalog name of the violated invariant (see module doc).
        message: Human-readable description.
        context: JSON-able details (rank, micro-batch, stage, times...).
    """

    check: str
    message: str
    context: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "message": self.message,
            "context": dict(self.context),
        }


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of running a suite of checkers over one configuration."""

    checks_run: Tuple[str, ...]
    violations: Tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "checks_run": list(self.checks_run),
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
        }


def is_afab_schedule(schedule: PipelineSchedule) -> bool:
    """Whether a schedule is all-forward-all-backward, either explicitly
    or through the ``nc < pp`` degeneration (Section 3.1.1).

    Registered schedules answer from their registry entry's ``family``
    (a ``*-degenerate-afab`` name always counts as AFAB regardless of
    family: it marks a 1F1B-family builder that degenerated).  The
    ``nc < pp`` heuristic only applies to *unregistered* names — a
    classic v=1 schedule like ``1f1b-noninterleaved`` ignores ``nc``
    entirely and must not be misjudged by it.
    """
    if (schedule.name in _AFAB_NAMES
            or schedule.name.endswith("-degenerate-afab")):
        return True
    entry = entry_for_name(schedule.name)
    if entry is not None:
        return entry.family == "afab"
    return degenerates_to_afab(schedule.pp, schedule.shape.nc)


# ----------------------------------------------------------------------
# Structure checks (schedule only)
# ----------------------------------------------------------------------

def check_conservation(schedule: PipelineSchedule) -> List[Violation]:
    """Every (global stage, micro-batch) appears exactly once per
    direction, hosted by the right rank, with in-range indices."""
    shape = schedule.shape
    out: List[Violation] = []
    seen: Dict[Tuple[OpKind, int, int], int] = {}
    for ppr in range(shape.pp):
        for op in schedule.program(ppr):
            if op.ppr != ppr:
                out.append(Violation(
                    "conservation",
                    f"rank {ppr} program holds an op for rank {op.ppr}",
                    {"ppr": ppr, "op_ppr": op.ppr}))
                continue
            if not 0 <= op.virtual_stage < shape.v or \
                    not 0 <= op.microbatch < shape.nmb:
                out.append(Violation(
                    "conservation",
                    f"out-of-range op vs={op.virtual_stage} "
                    f"mb={op.microbatch} on rank {ppr}",
                    {"ppr": ppr, "virtual_stage": op.virtual_stage,
                     "microbatch": op.microbatch}))
                continue
            key = (op.kind, op.global_stage(shape.pp), op.microbatch)
            seen[key] = seen.get(key, 0) + 1
    # Split-backward schedules conserve {F, BI, BW}; monolithic ones
    # conserve {F, B}.  Any op outside the schedule's kind set is flagged.
    expected_kinds: Tuple[OpKind, ...] = (
        (OpKind.FORWARD, OpKind.BACKWARD_INPUT, OpKind.BACKWARD_WEIGHT)
        if schedule.uses_split_backward
        else (OpKind.FORWARD, OpKind.BACKWARD)
    )
    for kind in expected_kinds:
        for stage in range(shape.pp * shape.v):
            for mb in range(shape.nmb):
                count = seen.get((kind, stage, mb), 0)
                if count != 1:
                    out.append(Violation(
                        "conservation",
                        f"{kind.value}:mb{mb}:s{stage} executed "
                        f"{count} times (expected once)",
                        {"kind": kind.value, "stage": stage,
                         "microbatch": mb, "count": count}))
    for (kind, stage, mb), count in sorted(
            seen.items(), key=lambda kv: (kv[0][0].value, kv[0][1], kv[0][2])):
        if kind not in expected_kinds:
            out.append(Violation(
                "conservation",
                f"{kind.value}:mb{mb}:s{stage} mixes "
                f"{'split' if schedule.uses_split_backward else 'monolithic'}"
                f"-backward programs with kind {kind.name}",
                {"kind": kind.value, "stage": stage,
                 "microbatch": mb, "count": count}))
    return out


def check_program_order(schedule: PipelineSchedule) -> List[Violation]:
    """Per rank, a micro-batch's backward follows its forward on the same
    virtual stage; under split backward, additionally BW follows BI."""
    out: List[Violation] = []
    for ppr in range(schedule.pp):
        first_fwd: Dict[Tuple[int, int], int] = {}
        first_bi: Dict[Tuple[int, int], int] = {}
        for idx, op in enumerate(schedule.program(ppr)):
            key = (op.virtual_stage, op.microbatch)
            if op.kind is OpKind.FORWARD:
                first_fwd.setdefault(key, idx)
                continue
            if key not in first_fwd:
                out.append(Violation(
                    "program-order",
                    f"rank {ppr}: backward of vs={key[0]} mb={key[1]} "
                    f"at position {idx} precedes its forward",
                    {"ppr": ppr, "virtual_stage": key[0],
                     "microbatch": key[1], "position": idx}))
                continue
            if op.kind is OpKind.BACKWARD_INPUT:
                first_bi.setdefault(key, idx)
            elif op.kind is OpKind.BACKWARD_WEIGHT and key not in first_bi:
                out.append(Violation(
                    "program-order",
                    f"rank {ppr}: weight-grad of vs={key[0]} mb={key[1]} "
                    f"at position {idx} precedes its input-grad",
                    {"ppr": ppr, "virtual_stage": key[0],
                     "microbatch": key[1], "position": idx}))
    return out


def check_warmup_depth(schedule: PipelineSchedule) -> List[Violation]:
    """Warm-up forwards before each rank's first backward match Section
    3.1.1.

    Expected depth is re-derived here from the raw
    :func:`~repro.pp.analysis.warmup_microbatches` formula — deliberately
    not shared with the generator's
    :func:`~repro.pp.analysis.warmup_forward_ops` call site, so an
    off-by-one introduced in the builder is caught rather than mirrored.
    """
    shape = schedule.shape
    out: List[Violation] = []
    afab = is_afab_schedule(schedule)
    entry = entry_for_name(schedule.name)
    for ppr in range(shape.pp):
        prog = schedule.program(ppr)
        actual = 0
        for op in prog:
            if op.kind is not OpKind.FORWARD:
                break
            actual += 1
        if afab:
            expected = shape.tmb
        elif entry is not None and entry.expected_warmup is not None:
            # Registered non-flexible kinds (classic 1F1B, zero-bubble)
            # declare their own analytic warm-up depth in the registry.
            expected = entry.expected_warmup(shape, ppr)
        else:
            expected = min(
                warmup_microbatches(shape.pp, ppr, shape.v, shape.nc) + 1,
                shape.tmb)
        if actual != expected:
            out.append(Violation(
                "warmup-depth",
                f"rank {ppr} runs {actual} warm-up forwards; Section "
                f"3.1.1 requires {expected} "
                f"(pp={shape.pp}, v={shape.v}, nc={shape.nc}, "
                f"nmb={shape.nmb}, afab={afab})",
                {"ppr": ppr, "actual": actual, "expected": expected,
                 "afab": afab}))
    return out


def check_zero_schedule(
    zero: ZeroStage, schedule_kind: str, bs: int, pp: int
) -> List[Violation]:
    """Section 3.1.3 pairing rule: ``bs >= 2 * pp`` selects ZeRO-1 with a
    1F1B-family schedule; below the boundary, ZeRO-2 with AFAB.

    ``schedule_kind`` is a registered schedule kind (or emitted schedule
    name); its family comes from the registry — ``"1f1b"``-family kinds
    (flexible, interleaved/classic 1F1B, zero-bubble, DIP) count as
    1F1B, ``"afab"``-family kinds (AFAB, GPipe) as
    all-forward-all-backward.
    """
    if bs < 1 or pp < 1:
        raise ValueError("bs and pp must be >= 1")
    if schedule_kind.endswith("-degenerate-afab"):
        one_f1b = False
    else:
        entry = entry_for_name(schedule_kind)
        if entry is None:
            raise ValueError(f"unknown schedule family {schedule_kind!r}")
        one_f1b = entry.family == "1f1b"
    expected_zero, expected_kind = (
        (ZeroStage.ZERO_1, "1f1b") if bs >= 2 * pp
        else (ZeroStage.ZERO_2, "afab"))
    out: List[Violation] = []
    context = {"bs": bs, "pp": pp, "boundary": 2 * pp,
               "zero": zero.name, "schedule": schedule_kind}
    if zero is not expected_zero:
        out.append(Violation(
            "zero-schedule",
            f"bs={bs} vs 2*pp={2 * pp} selects {expected_zero.name}, "
            f"got {zero.name} (Section 3.1.3)",
            context))
    if (expected_kind == "1f1b") != one_f1b:
        out.append(Violation(
            "zero-schedule",
            f"bs={bs} vs 2*pp={2 * pp} selects the "
            f"{'1F1B' if expected_kind == '1f1b' else 'AFAB'} family, "
            f"got {schedule_kind!r} (Section 3.1.3)",
            context))
    return out


# ----------------------------------------------------------------------
# Timeline checks (schedule + executed run)
# ----------------------------------------------------------------------

def check_stream_overlap(run: PipelineRun) -> List[Violation]:
    """No two events overlap on one (rank, stream)."""
    return [
        Violation(
            "stream-overlap",
            f"events {a.name!r} and {b.name!r} overlap on rank {a.rank} "
            f"stream {a.stream!r} ([{a.start}, {a.end}) vs "
            f"[{b.start}, {b.end}))",
            {"rank": a.rank, "stream": a.stream,
             "first": a.name, "second": b.name})
        for a, b in run.sim.overlapping_events()
    ]


def check_send_before_recv(run: PipelineRun) -> List[Violation]:
    """Executed dependency timing: an op's compute starts no earlier than
    its cross-rank producer's compute ended plus the P2P latency.

    Checks both directions of the Figure 3 dependency structure —
    forward activations flowing down the stages and gradients flowing
    back up — and that every scheduled op actually has a recorded event
    of non-negative duration.
    """
    schedule = run.schedule
    shape = schedule.shape
    if run.op_events is None:
        return [Violation(
            "send-before-recv",
            "run has no op_events; re-execute with "
            "repro.train.executor.execute_pipeline",
            {})]
    p2p = run.p2p_seconds or 0.0
    last_stage = shape.pp * shape.v - 1
    out: List[Violation] = []
    for op in schedule.ops():
        event = run.op_events.get(op)
        if event is None:
            out.append(Violation(
                "send-before-recv",
                f"op {op.label(shape.pp)} on rank {op.ppr} has no "
                f"recorded event",
                {"ppr": op.ppr, "op": op.label(shape.pp)}))
            continue
        if event.duration < 0:
            out.append(Violation(
                "send-before-recv",
                f"op {op.label(shape.pp)} has negative duration "
                f"{event.duration}",
                {"ppr": op.ppr, "op": op.label(shape.pp)}))
        stage = op.global_stage(shape.pp)
        if op.kind is OpKind.FORWARD:
            if stage == 0:
                continue
            producer = PipelineOp(OpKind.FORWARD, (stage - 1) % shape.pp,
                                  (stage - 1) // shape.pp, op.microbatch)
        elif op.kind is OpKind.BACKWARD_WEIGHT:
            # Weight-grad halves are rank-local: no cross-rank producer.
            continue
        else:
            # Monolithic B — or the input-grad half BI under split
            # backward — consumes the same kind from the next stage.
            if stage == last_stage:
                continue
            producer = PipelineOp(op.kind, (stage + 1) % shape.pp,
                                  (stage + 1) // shape.pp, op.microbatch)
        produced = run.op_events.get(producer)
        if produced is None:
            out.append(Violation(
                "send-before-recv",
                f"op {op.label(shape.pp)} consumed "
                f"{producer.label(shape.pp)} which never executed",
                {"op": op.label(shape.pp),
                 "producer": producer.label(shape.pp)}))
            continue
        if event.start + _EPS < produced.end + p2p:
            out.append(Violation(
                "send-before-recv",
                f"op {op.label(shape.pp)} on rank {op.ppr} started at "
                f"{event.start} before its input from "
                f"{producer.label(shape.pp)} arrived at "
                f"{produced.end + p2p}",
                {"op": op.label(shape.pp),
                 "producer": producer.label(shape.pp),
                 "start": event.start,
                 "arrival": produced.end + p2p}))
    return out


# ----------------------------------------------------------------------
# Step-graph timeline checks (lowered graph + executed events)
# ----------------------------------------------------------------------

def _fsdp_stage_round(op: StepOp) -> Tuple[int, Optional[int]]:
    """Parse (stage, round) out of an FSDP op name —
    ``fsdp:ag:s{stage}[:r{round}]`` / ``fsdp:rs:s{stage}``."""
    parts = op.name.split(":")
    stage = int(parts[2][1:])
    rnd = int(parts[3][1:]) if len(parts) > 3 else None
    return stage, rnd


def check_step_dep_ordering(
    graph: StepGraph, events: Dict[int, TraceEvent]
) -> List[Violation]:
    """Every executed op starts no earlier than each dependency's end."""
    out: List[Violation] = []
    for op in graph.ops():
        event = events.get(op.uid)
        if event is None:
            out.append(Violation(
                "step-dep-ordering",
                f"op {op.name!r} on rank {op.rank} was never executed",
                {"rank": op.rank, "op": op.name}))
            continue
        for dep_uid in op.deps:
            dep = events.get(dep_uid)
            if dep is not None and event.start + _EPS < dep.end:
                out.append(Violation(
                    "step-dep-ordering",
                    f"op {op.name!r} on rank {op.rank} started at "
                    f"{event.start} before dependency {dep.name!r} "
                    f"finished at {dep.end}",
                    {"rank": op.rank, "op": op.name, "dep": dep.name,
                     "start": event.start, "dep_end": dep.end}))
    return out


def check_fsdp_allgather_before_use(
    graph: StepGraph,
    events: Dict[int, TraceEvent],
    nc: Optional[int] = None,
) -> List[Violation]:
    """A stage's param all-gather ends before the stage's first compute
    of the matching round starts (round matching needs ``nc``)."""
    out: List[Violation] = []
    pp = graph.pp
    for program in graph.programs:
        gathers: Dict[Tuple[int, Optional[int]], StepOp] = {}
        for op in program:
            if op.kind is StepOpKind.FSDP_ALLGATHER:
                gathers[_fsdp_stage_round(op)] = op
        for op in program:
            if op.kind is not StepOpKind.COMPUTE or op.pipeline_op is None:
                continue
            stage = op.pipeline_op.global_stage(pp)
            rnd = (op.pipeline_op.microbatch // nc
                   if nc is not None and (stage, None) not in gathers
                   else None)
            ag = gathers.get((stage, rnd)) or gathers.get((stage, None))
            if ag is None:
                if nc is None and any(s == stage for s, _ in gathers):
                    continue  # per-round gathers but no nc to match rounds
                out.append(Violation(
                    "fsdp-allgather-before-use",
                    f"stage {stage} compute {op.name!r} on rank {op.rank} "
                    "has no parameter all-gather",
                    {"rank": op.rank, "stage": stage, "op": op.name}))
                continue
            ag_event, use = events.get(ag.uid), events.get(op.uid)
            if ag_event is None or use is None:
                continue  # reported by step-dep-ordering
            if use.start + _EPS < ag_event.end:
                out.append(Violation(
                    "fsdp-allgather-before-use",
                    f"compute {op.name!r} on rank {op.rank} started at "
                    f"{use.start} before {ag.name!r} finished at "
                    f"{ag_event.end}",
                    {"rank": op.rank, "stage": stage, "op": op.name,
                     "allgather": ag.name, "start": use.start,
                     "allgather_end": ag_event.end}))
    return out


def check_fsdp_reduce_after_backward(
    graph: StepGraph, events: Dict[int, TraceEvent]
) -> List[Violation]:
    """A stage's grad reduce-scatter starts only after the stage's last
    backward compute finished."""
    out: List[Violation] = []
    pp = graph.pp
    for program in graph.programs:
        last_backward: Dict[int, TraceEvent] = {}
        for op in program:
            if (op.kind is StepOpKind.COMPUTE and op.pipeline_op is not None
                    and op.pipeline_op.kind in GRAD_PRODUCING_KINDS):
                event = events.get(op.uid)
                stage = op.pipeline_op.global_stage(pp)
                if event is not None and (
                        stage not in last_backward
                        or event.end > last_backward[stage].end):
                    last_backward[stage] = event
        for op in program:
            if op.kind is not StepOpKind.FSDP_REDUCESCATTER:
                continue
            stage, _ = _fsdp_stage_round(op)
            event = events.get(op.uid)
            last = last_backward.get(stage)
            if event is None or last is None:
                continue
            if event.start + _EPS < last.end:
                out.append(Violation(
                    "fsdp-reduce-after-backward",
                    f"{op.name!r} on rank {op.rank} started at "
                    f"{event.start} before stage {stage}'s last backward "
                    f"{last.name!r} finished at {last.end}",
                    {"rank": op.rank, "stage": stage,
                     "start": event.start, "backward_end": last.end}))
    return out


def check_optimizer_after_reduce(
    graph: StepGraph, events: Dict[int, TraceEvent]
) -> List[Violation]:
    """Each rank runs exactly one optimizer op, starting after every
    reduce-scatter on the rank."""
    out: List[Violation] = []
    for rank, program in enumerate(graph.programs):
        optimizers = [op for op in program
                      if op.kind is StepOpKind.OPTIMIZER]
        if len(optimizers) != 1:
            out.append(Violation(
                "optimizer-after-reduce",
                f"rank {rank} runs {len(optimizers)} optimizer ops "
                "(expected exactly one)",
                {"rank": rank, "count": len(optimizers)}))
            continue
        opt = events.get(optimizers[0].uid)
        if opt is None:
            continue
        for op in program:
            if op.kind is not StepOpKind.FSDP_REDUCESCATTER:
                continue
            rs = events.get(op.uid)
            if rs is not None and opt.start + _EPS < rs.end:
                out.append(Violation(
                    "optimizer-after-reduce",
                    f"rank {rank} optimizer started at {opt.start} before "
                    f"{op.name!r} finished at {rs.end}",
                    {"rank": rank, "start": opt.start,
                     "reduce": op.name, "reduce_end": rs.end}))
    return out


def check_fsdp_zero_pairing(
    graph: StepGraph, zero: ZeroStage, nc: int
) -> List[Violation]:
    """ZeRO-3 gathers once per round per stage; ZeRO-1/2 once per stage.
    Every stage reduce-scatters exactly once."""
    out: List[Violation] = []
    pp = graph.pp
    for rank, program in enumerate(graph.programs):
        ag_count: Dict[int, int] = {}
        rs_count: Dict[int, int] = {}
        rounds_used: Dict[int, set] = {}
        for op in program:
            if op.kind is StepOpKind.FSDP_ALLGATHER:
                stage, _ = _fsdp_stage_round(op)
                ag_count[stage] = ag_count.get(stage, 0) + 1
            elif op.kind is StepOpKind.FSDP_REDUCESCATTER:
                stage, _ = _fsdp_stage_round(op)
                rs_count[stage] = rs_count.get(stage, 0) + 1
            elif (op.kind is StepOpKind.COMPUTE
                    and op.pipeline_op is not None):
                stage = op.pipeline_op.global_stage(pp)
                rounds_used.setdefault(stage, set()).add(
                    op.pipeline_op.microbatch // nc)
        for stage, rounds in sorted(rounds_used.items()):
            expected = len(rounds) if zero is ZeroStage.ZERO_3 else 1
            if ag_count.get(stage, 0) != expected:
                out.append(Violation(
                    "fsdp-zero-pairing",
                    f"rank {rank} stage {stage}: {ag_count.get(stage, 0)} "
                    f"param all-gathers, {zero.name} expects {expected}",
                    {"rank": rank, "stage": stage, "zero": zero.name,
                     "actual": ag_count.get(stage, 0),
                     "expected": expected}))
            if rs_count.get(stage, 0) != 1:
                out.append(Violation(
                    "fsdp-zero-pairing",
                    f"rank {rank} stage {stage}: "
                    f"{rs_count.get(stage, 0)} grad reduce-scatters "
                    "(expected exactly one)",
                    {"rank": rank, "stage": stage,
                     "actual": rs_count.get(stage, 0)}))
    return out


def check_critical_path_makespan(
    graph: StepGraph, events: Dict[int, TraceEvent]
) -> List[Violation]:
    """The critical path tiles [0, makespan] with bitwise-contiguous
    links — the exact (not approximate) decomposition of the step time.

    Assumes the step started at t=0 (true for every ``simulate_step``
    output; a timeline executed into an already-busy simulator makes
    the chain legitimately inexact and is reported as violations here).
    """
    # Imported lazily: repro.analysis sits above repro.verify in the
    # layering and this is the one place verify reaches up.
    from repro.analysis.critical_path import extract_critical_path

    out: List[Violation] = []
    report = extract_critical_path(graph, events)
    executed = [events[op.uid] for op in graph.ops() if op.uid in events]
    if not executed:
        return out
    makespan = max(e.end for e in executed)
    entries = report.entries
    if not entries:
        return [Violation(
            "critical-path-makespan",
            "no critical path extracted from a non-empty timeline",
            {"makespan": makespan})]
    if entries[0].start != 0.0:
        out.append(Violation(
            "critical-path-makespan",
            f"critical path starts at {entries[0].start}, not 0.0 "
            f"(origin op {entries[0].name!r}, via {entries[0].via!r})",
            {"start": entries[0].start, "op": entries[0].name,
             "via": entries[0].via}))
    for prev, cur in zip(entries, entries[1:]):
        if cur.start != prev.end:
            out.append(Violation(
                "critical-path-makespan",
                f"critical path breaks between {prev.name!r} (end "
                f"{prev.end}) and {cur.name!r} (start {cur.start}) — "
                "links must be bitwise contiguous",
                {"prev": prev.name, "prev_end": prev.end,
                 "next": cur.name, "next_start": cur.start}))
    if entries[-1].end != makespan:
        out.append(Violation(
            "critical-path-makespan",
            f"critical path ends at {entries[-1].end}, but the step "
            f"makespan is {makespan}",
            {"end": entries[-1].end, "makespan": makespan}))
    if not report.exact and not out:
        out.append(Violation(
            "critical-path-makespan",
            "extractor flagged the chain inexact",
            {"makespan": makespan}))
    return out


def run_step_invariants(
    graph: StepGraph,
    events: Dict[int, TraceEvent],
    zero: Optional[ZeroStage] = None,
    nc: Optional[int] = None,
) -> InvariantReport:
    """Run the step-graph timeline checkers over one executed step.

    ``events`` maps op uid to its recorded event — i.e.
    ``StepReport.execution.events``.  The ZeRO pairing check needs
    ``zero`` and ``nc``; all-gather round matching also uses ``nc`` when
    available.
    """
    checks: List[Tuple[str, List[Violation]]] = [
        ("step-dep-ordering", check_step_dep_ordering(graph, events)),
        ("fsdp-allgather-before-use",
         check_fsdp_allgather_before_use(graph, events, nc)),
        ("fsdp-reduce-after-backward",
         check_fsdp_reduce_after_backward(graph, events)),
        ("optimizer-after-reduce",
         check_optimizer_after_reduce(graph, events)),
        ("critical-path-makespan",
         check_critical_path_makespan(graph, events)),
    ]
    if zero is not None and nc is not None:
        checks.append(("fsdp-zero-pairing",
                       check_fsdp_zero_pairing(graph, zero, nc)))
    return InvariantReport(
        checks_run=tuple(name for name, _ in checks),
        violations=tuple(v for _, vs in checks for v in vs),
    )


# ----------------------------------------------------------------------
# Suite
# ----------------------------------------------------------------------

def run_invariants(
    schedule: PipelineSchedule,
    run: Optional[PipelineRun] = None,
    zero: Optional[ZeroStage] = None,
    bs: Optional[int] = None,
) -> InvariantReport:
    """Run every applicable checker over one configuration.

    Timeline checks need ``run``; the ZeRO pairing rule needs ``zero``
    and ``bs``.  Both are optional so the suite degrades to pure
    structure checking when only a schedule is available.
    """
    checks: List[Tuple[str, List[Violation]]] = [
        ("conservation", check_conservation(schedule)),
        ("program-order", check_program_order(schedule)),
        ("warmup-depth", check_warmup_depth(schedule)),
    ]
    if run is not None:
        checks.append(("stream-overlap", check_stream_overlap(run)))
        checks.append(("send-before-recv", check_send_before_recv(run)))
    if zero is not None and bs is not None:
        kind = "afab" if is_afab_schedule(schedule) else "1f1b"
        checks.append(
            ("zero-schedule",
             check_zero_schedule(zero, kind, bs, schedule.pp)))
    return InvariantReport(
        checks_run=tuple(name for name, _ in checks),
        violations=tuple(v for _, vs in checks for v in vs),
    )
