"""Gradient and activation memory lifetime under PP x FSDP ZeRO modes.

Reproduces the mechanics behind Figure 4:

* Interleaved schedules alternate virtual stages, so gradients must be
  **accumulated across executions of the same virtual stage** — a gradient
  buffer is born at a stage's first backward.
* **ZeRO-1** keeps the unsharded buffer until the end of the step and
  launches the reduce-scatter only on the last micro-batch (Figure 4a):
  more memory, minimal communication.
* **ZeRO-2** reduce-scatters at the end of each run of consecutive
  micro-batches of a virtual stage (Figure 4c), shrinking the buffer to
  its DP-sharded size in between: less memory, ``rounds``-times the
  reduce-scatter traffic — the congestion source Section 3.1.3 warns about.

The tracker walks one rank's program op by op and emits a step-function
timeline of gradient and activation bytes, so the Figure 4 benchmark can
print the curves and the planner's closed-form peak can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.parallel.config import ZeroStage
from repro.pp.schedule import (
    ACTIVATION_FREEING_KINDS,
    GRAD_PRODUCING_KINDS,
    OpKind,
    PipelineSchedule,
)


class MemorySample(NamedTuple):
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
    pp = shape.pp
    program = schedule.program(ppr)
    weights = stage_weights or {}
    # Membership over tuples compares kinds by identity (no enum hashing).
    forward = OpKind.FORWARD
    freeing = tuple(ACTIVATION_FREEING_KINDS)
    producing = tuple(GRAD_PRODUCING_KINDS)

    # Reduce-scatter points, as program indices.  Under split backward
    # the weight gradient materialises at BW, so grad-producing ops (B,
    # or BW) drive reduce-scatter placement while activation-freeing ops
    # (B, or BI) drive the activation curve.  ZeRO-1 reduce-scatters once,
    # at each virtual stage's final backward.  ZeRO-2 reduce-scatters at
    # the end of each run of one stage's backwards, a run being cut only
    # when a *different* stage's backward intervenes.
    bwd_seq = [(idx, op.virtual_stage) for idx, op in enumerate(program)
               if op.kind in producing]
    if zero is ZeroStage.ZERO_1:
        rs_points = set({vs: idx for idx, vs in bwd_seq}.values())
    else:
        rs_points = {
            idx for j, (idx, vs) in enumerate(bwd_seq)
            if j + 1 == len(bwd_seq) or bwd_seq[j + 1][1] != vs
        }

    # Per-stage byte sizes, priced once.  The running totals below are
    # recomputed in full (same terms, same order) whenever their state
    # changes, so every sample matches a from-scratch sum bit for bit.
    grad_full = [grad_bytes_per_stage * weights.get(vs, 1.0)
                 for vs in range(shape.v)]
    grad_sharded = [size / shard_degree for size in grad_full]
    act_unit = [act_bytes_per_microbatch * weights.get(vs, 1.0)
                for vs in range(shape.v)]
    # vs -> True while its gradient buffer is unsharded; insertion order
    # (first backward) is the summation order.
    grad_state: Dict[int, bool] = {}
    act_in_flight = [0] * shape.v
    grad_bytes = 0.0
    act_bytes = sum(map(mul, act_unit, act_in_flight))
    samples: List[MemorySample] = []
    new = tuple.__new__
    rs_count = 0

    for idx, op in enumerate(program):
        kind = op.kind
        vs = op.virtual_stage
        launched_rs = False
        if kind is forward:
            act_in_flight[vs] += 1
            act_bytes = sum(map(mul, act_unit, act_in_flight))
        elif kind in freeing:
            act_in_flight[vs] -= 1
            if act_in_flight[vs] < 0:
                raise ValueError(
                    f"rank {ppr}: backward without live forward at op {idx}"
                )
            act_bytes = sum(map(mul, act_unit, act_in_flight))
        if kind in producing:
            changed = grad_state.get(vs) is not True
            grad_state[vs] = True
            if idx in rs_points:
                launched_rs = True
                rs_count += 1
                if zero is not ZeroStage.ZERO_1:
                    grad_state[vs] = False
                    changed = True
            if changed:
                grad_bytes = 0.0
                for stage, unsharded in grad_state.items():
                    grad_bytes += (grad_full[stage] if unsharded
                                   else grad_sharded[stage])
        # ``_value_`` is the enum member's value ("F", "B", ...) without
        # the ``value`` property's descriptor call; the label equals
        # ``op.label(pp)``.
        label = (f"{kind._value_}:mb{op.microbatch}"
                 f":s{vs * pp + op.ppr}")
        samples.append(new(MemorySample, (
            idx, label, grad_bytes, act_bytes, launched_rs)))

    return MemoryTimeline(
        ppr=ppr, zero=zero, samples=tuple(samples),
        reduce_scatter_count=rs_count,
    )


def peak_in_flight_from_schedule(schedule: PipelineSchedule, ppr: int) -> int:
    """Peak simultaneous live forwards on one rank, counted exactly from
    the program — the event-level counterpart of
    :func:`repro.pp.analysis.peak_in_flight_microbatches`."""
    live = 0
    peak = 0
    for op in schedule.program(ppr):
        if op.kind is OpKind.FORWARD:
            live += 1
            peak = max(peak, live)
        elif op.kind in ACTIVATION_FREEING_KINDS:
            live -= 1
    return peak
