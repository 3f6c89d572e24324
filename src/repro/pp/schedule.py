"""Pipeline schedule generation: interleaved 1F1B, all-forward-all-backward,
and the paper's flexible schedule (Section 3.1.1).

A schedule is, per pipeline rank, an ordered list of :class:`PipelineOp`
(forward or backward of one micro-batch on one virtual stage).  Model layers
are placed on virtual stages in the interleaved pattern of Figure 2: global
stage ``s`` lives on rank ``s % pp`` as virtual stage ``s // pp``, so rank 0
hosts stages 0 and pp, rank 1 hosts 1 and pp + 1, and so on.

The flexible schedule is the interleaved 1F1B construction generalised to
any round size ``nc`` in ``[1, nmb]``:

* ``nc == pp`` recovers the original interleaved 1F1B (which requires the
  batch to be a multiple of pp);
* ``nc > pp`` inserts ``nc - pp`` extra micro-batches per virtual stage into
  warm-up, hiding exposed P2P at the cost of ``(nc - pp) * (v - 1)`` extra
  in-flight micro-batches (Figure 3);
* ``nc < pp`` degenerates into all-forward-all-backward (Figure 4b), because
  the warm-up depth reaches the whole batch.

Schedules generated here are *structures*; timing comes from executing them
on the simulator (:mod:`repro.train.executor`), and the executor doubles as
a deadlock checker.

Builders register themselves with :mod:`repro.pp.registry`;
:func:`build_schedule` dispatches through it.  The zoo of additional
schedules (GPipe, non-interleaved 1F1B, zero-bubble, DIP) lives in
:mod:`repro.pp.zoo`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Optional, Tuple

from repro.errors import ConfigError
from repro.pp.analysis import ScheduleShape, warmup_forward_ops
from repro.pp.registry import register_schedule, schedule_entry


class OpKind(Enum):
    FORWARD = "F"
    BACKWARD = "B"
    #: Zero-bubble split backward: d(loss)/d(input), the half on the
    #: inter-stage critical path (sends the upstream activation grad).
    BACKWARD_INPUT = "BI"
    #: Zero-bubble split backward: d(loss)/d(weights), rank-local filler
    #: work that can be deferred into bubbles.
    BACKWARD_WEIGHT = "BW"


#: Kinds that consume (and free) a saved forward activation when they run.
ACTIVATION_FREEING_KINDS = frozenset({OpKind.BACKWARD, OpKind.BACKWARD_INPUT})
#: Kinds whose completion makes a stage's weight gradient available.
GRAD_PRODUCING_KINDS = frozenset({OpKind.BACKWARD, OpKind.BACKWARD_WEIGHT})
#: The split-backward pair used by zero-bubble-style schedules.
SPLIT_BACKWARD_KINDS = frozenset({OpKind.BACKWARD_INPUT, OpKind.BACKWARD_WEIGHT})


@dataclass(frozen=True)
class PipelineOp:
    """One unit of pipeline work: fwd or bwd of one micro-batch on one
    virtual stage of one rank.

    Attributes:
        kind: FORWARD or BACKWARD.
        ppr: Pipeline rank executing the op.
        virtual_stage: Local virtual-stage index on that rank, in [0, v).
        microbatch: Micro-batch id, in [0, nmb).
    """

    kind: OpKind
    ppr: int
    virtual_stage: int
    microbatch: int

    def global_stage(self, pp: int) -> int:
        """Position of this op's stage in the end-to-end layer order."""
        return self.virtual_stage * pp + self.ppr

    def label(self, pp: int) -> str:
        return (
            f"{self.kind.value}:mb{self.microbatch}:"
            f"s{self.global_stage(pp)}"
        )


@dataclass(frozen=True)
class PipelineSchedule:
    """A complete schedule: one ordered program per pipeline rank."""

    name: str
    shape: ScheduleShape
    programs: Tuple[Tuple[PipelineOp, ...], ...]

    @property
    def pp(self) -> int:
        return self.shape.pp

    def program(self, ppr: int) -> Tuple[PipelineOp, ...]:
        return self.programs[ppr]

    def ops(self) -> Iterator[PipelineOp]:
        for prog in self.programs:
            yield from prog

    @property
    def uses_split_backward(self) -> bool:
        """True when programs split backward into BI + BW ops."""
        return any(
            op.kind in SPLIT_BACKWARD_KINDS for op in self.ops()
        )

    def validate(self) -> None:
        """Check structural invariants: every (stage, micro-batch) appears
        exactly once per direction, a micro-batch's backward (or its
        BI -> BW split pair) follows its forward in rank order, and
        program lengths are 2 * tmb (3 * tmb under split backward)."""
        shape = self.shape
        split = self.uses_split_backward
        bwd_kinds: Tuple[OpKind, ...] = (
            (OpKind.BACKWARD_INPUT, OpKind.BACKWARD_WEIGHT)
            if split
            else (OpKind.BACKWARD,)
        )
        ops_per_unit = 1 + len(bwd_kinds)
        for ppr, prog in enumerate(self.programs):
            if len(prog) != ops_per_unit * shape.tmb:
                raise ValueError(
                    f"rank {ppr}: program has {len(prog)} ops, expected "
                    f"{ops_per_unit * shape.tmb}"
                )
            seen = {}
            for idx, op in enumerate(prog):
                if op.ppr != ppr:
                    raise ValueError(f"rank {ppr} holds op for rank {op.ppr}")
                if not 0 <= op.virtual_stage < shape.v:
                    raise ValueError(f"bad virtual stage {op.virtual_stage}")
                if not 0 <= op.microbatch < shape.nmb:
                    raise ValueError(f"bad microbatch {op.microbatch}")
                if op.kind is not OpKind.FORWARD and op.kind not in bwd_kinds:
                    raise ValueError(
                        f"rank {ppr}: op kind {op.kind.name} mixes split "
                        f"and monolithic backward in one schedule"
                    )
                key = (op.kind, op.virtual_stage, op.microbatch)
                if key in seen:
                    raise ValueError(f"duplicate op {key} on rank {ppr}")
                seen[key] = idx
            for vs in range(shape.v):
                for mb in range(shape.nmb):
                    fwd = seen.get((OpKind.FORWARD, vs, mb))
                    if fwd is None:
                        raise ValueError(
                            f"rank {ppr} missing fwd/bwd for vs={vs} mb={mb}"
                        )
                    prev = fwd
                    for kind in bwd_kinds:
                        pos = seen.get((kind, vs, mb))
                        if pos is None:
                            raise ValueError(
                                f"rank {ppr} missing fwd/bwd for "
                                f"vs={vs} mb={mb}"
                            )
                        if pos < prev:
                            raise ValueError(
                                f"rank {ppr}: backward before forward for "
                                f"vs={vs} mb={mb}"
                            )
                        prev = pos


def _forward_sequence(shape: ScheduleShape) -> List[Tuple[int, int]]:
    """Order of (virtual_stage, microbatch) forwards on every rank.

    Rounds of ``nc`` consecutive micro-batches sweep the virtual stages in
    ascending order (Figure 2: stage 0 runs micro-batches 0..nc-1, then
    stage 1 runs 0..nc-1, ...).
    """
    seq = []
    for rnd in range(shape.rounds):
        for vs in range(shape.v):
            for k in range(shape.nc):
                seq.append((vs, rnd * shape.nc + k))
    return seq


def _backward_sequence(shape: ScheduleShape) -> List[Tuple[int, int]]:
    """Order of (virtual_stage, microbatch) backwards: same round structure
    with virtual stages swept in *descending* order (gradients flow from the
    last stage back)."""
    seq = []
    for rnd in range(shape.rounds):
        for vs in reversed(range(shape.v)):
            for k in range(shape.nc):
                seq.append((vs, rnd * shape.nc + k))
    return seq


@register_schedule(
    "flexible",
    description="Section 3.1.1 flexible schedule: interleaved 1F1B "
    "generalised to any round size nc; degenerates to AFAB when nc < pp",
    family="1f1b",
    aliases=("1f1b-interleaved", "flexible-degenerate-afab"),
)
def build_flexible_schedule(shape: ScheduleShape) -> PipelineSchedule:
    """The paper's flexible PP schedule for arbitrary nc and nmb.

    Each rank runs ``w`` warm-up forwards (``w`` from the Section 3.1.1
    formula, capped at the total), then alternates one-forward-one-backward,
    then drains the remaining backwards.

    When ``nc < pp`` the 1F1B hand-off invariant between adjacent ranks no
    longer holds (late ranks would start backwards that early ranks cannot
    yet serve), so — exactly as Section 3.1.1 describes — the schedule
    *degenerates into all-forward-all-backward*: all virtual-stage forwards
    run before any backward.
    """
    if shape.nc < shape.pp:
        afab = build_afab_schedule(shape)
        return PipelineSchedule(
            name="flexible-degenerate-afab",
            shape=shape,
            programs=afab.programs,
        )
    fwd_seq = _forward_sequence(shape)
    bwd_seq = _backward_sequence(shape)
    programs = []
    for ppr in range(shape.pp):
        w = warmup_forward_ops(shape.pp, ppr, shape.v, shape.nc, shape.nmb)
        prog: List[PipelineOp] = []
        for vs, mb in fwd_seq[:w]:
            prog.append(PipelineOp(OpKind.FORWARD, ppr, vs, mb))
        steady = shape.tmb - w
        for i in range(steady):
            vs_b, mb_b = bwd_seq[i]
            prog.append(PipelineOp(OpKind.BACKWARD, ppr, vs_b, mb_b))
            vs_f, mb_f = fwd_seq[w + i]
            prog.append(PipelineOp(OpKind.FORWARD, ppr, vs_f, mb_f))
        for vs, mb in bwd_seq[steady:]:
            prog.append(PipelineOp(OpKind.BACKWARD, ppr, vs, mb))
        programs.append(tuple(prog))
    name = "flexible" if shape.nc != shape.pp else "1f1b-interleaved"
    schedule = PipelineSchedule(name=name, shape=shape,
                                programs=tuple(programs))
    schedule.validate()
    return schedule


def build_interleaved_1f1b(
    pp: int,
    v: int,
    nmb: int,
    *,
    stage_compute_scale: Optional[Tuple[float, ...]] = None,
    microbatch_compute_scale: Optional[Tuple[float, ...]] = None,
) -> PipelineSchedule:
    """The original interleaved 1F1B (Figure 2): fixes nc = pp, so nmb must
    be a multiple of pp — the constraint flexible PP removes."""
    if nmb % pp != 0:
        raise ConfigError(
            f"interleaved 1F1B requires nmb ({nmb}) to be a multiple of "
            f"pp ({pp}); use the flexible schedule otherwise"
        )
    return build_flexible_schedule(
        ScheduleShape(
            pp=pp,
            v=v,
            nc=pp,
            nmb=nmb,
            stage_compute_scale=stage_compute_scale,
            microbatch_compute_scale=microbatch_compute_scale,
        )
    )


def _1f1b_supports(shape: ScheduleShape) -> Optional[str]:
    if shape.nmb % shape.pp != 0:
        return (
            f"interleaved 1F1B requires nmb ({shape.nmb}) to be a "
            f"multiple of pp ({shape.pp})"
        )
    return None


def _1f1b_constrain(shape: ScheduleShape) -> ScheduleShape:
    nmb = max(shape.pp, shape.nmb - shape.nmb % shape.pp)
    return ScheduleShape(pp=shape.pp, v=shape.v, nc=shape.pp, nmb=nmb)


@register_schedule(
    "1f1b",
    description="original interleaved 1F1B (Figure 2): nc fixed to pp, "
    "nmb must divide by pp",
    family="1f1b",
    aliases=("1f1b-interleaved",),
    supports=_1f1b_supports,
    constrain=_1f1b_constrain,
)
def _build_interleaved_1f1b_from_shape(shape: ScheduleShape) -> PipelineSchedule:
    """Registry adapter: kind "1f1b" ignores ``shape.nc`` (nc = pp)."""
    return build_interleaved_1f1b(
        shape.pp,
        shape.v,
        shape.nmb,
        stage_compute_scale=shape.stage_compute_scale,
        microbatch_compute_scale=shape.microbatch_compute_scale,
    )


@register_schedule(
    "afab",
    description="all-forward-all-backward (Figure 4b): every forward of "
    "every virtual stage runs before any backward",
    family="afab",
)
def build_afab_schedule(shape: ScheduleShape) -> PipelineSchedule:
    """All-forward-all-backward (GPipe-style, Figure 4b): every forward of
    every virtual stage runs before any backward."""
    fwd_seq = _forward_sequence(shape)
    bwd_seq = _backward_sequence(shape)
    programs = []
    for ppr in range(shape.pp):
        prog = [PipelineOp(OpKind.FORWARD, ppr, vs, mb) for vs, mb in fwd_seq]
        prog += [PipelineOp(OpKind.BACKWARD, ppr, vs, mb) for vs, mb in bwd_seq]
        programs.append(tuple(prog))
    schedule = PipelineSchedule(name="afab", shape=shape,
                                programs=tuple(programs))
    schedule.validate()
    return schedule


def build_schedule(shape: ScheduleShape, kind: str = "flexible") -> PipelineSchedule:
    """Build ``shape`` under the registered schedule ``kind``.

    Dispatches through :mod:`repro.pp.registry`;
    :func:`repro.pp.registry.schedule_kinds` (or ``repro schedules`` on
    the CLI) lists the options.  Unknown kinds raise ``ValueError``.
    """
    return schedule_entry(kind).builder(shape)
