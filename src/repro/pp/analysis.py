"""Closed-form pipeline-schedule math (Section 3.1.1).

These formulas are deliberately free of dependencies on the rest of the
library so both the Section 5 planner and the exact schedule generator can
use them; tests cross-check them against event-level simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


def validate_schedule_params(pp: int, v: int, nc: int, nmb: int) -> None:
    """Raise ValueError unless (pp, v, nc, nmb) describe a valid schedule."""
    if pp < 1:
        raise ValueError(f"pp must be >= 1; got pp={pp}")
    if v < 1:
        raise ValueError(f"v (virtual stages per rank) must be >= 1; got v={v}")
    if nmb < 1:
        raise ValueError(
            f"nmb (micro-batches per virtual stage) must be >= 1; got nmb={nmb}"
        )
    if not 1 <= nc <= nmb:
        raise ValueError(f"nc must be in [1, nmb]; got nc={nc}, nmb={nmb}")
    if nmb % nc != 0:
        raise ValueError(
            f"nmb ({nmb}) must be a multiple of nc ({nc}) so rounds are equal"
        )


def warmup_microbatches(pp: int, ppr: int, v: int, nc: int) -> int:
    """Warm-up micro-batch forwards before a rank's first backward.

    The paper's formula (Section 3.1.1): ``(v - 1) * nc + 2 * (pp - ppr - 1)``.
    Earlier ranks warm up deeper — the root of the PP memory imbalance that
    Section 3.1.2 addresses by removing a layer from the first stage.
    """
    if not 0 <= ppr < pp:
        raise ValueError(f"ppr must be in [0, pp); got ppr={ppr}, pp={pp}")
    if v < 1 or nc < 1:
        raise ValueError(f"v and nc must be >= 1; got v={v}, nc={nc}")
    return (v - 1) * nc + 2 * (pp - ppr - 1)


def peak_in_flight_microbatches(
    pp: int, ppr: int, v: int, nc: int, nmb: int, all_forward_all_backward: bool = False
) -> int:
    """Peak simultaneous micro-batches with live forward activations.

    For 1F1B-style schedules this is the warm-up depth plus the one
    micro-batch in steady state, capped at the total; for
    all-forward-all-backward every micro-batch of every virtual stage is
    in flight at once (Figure 4b).  ``nc < pp`` implies AFAB because the
    flexible schedule degenerates there (Section 3.1.1).
    """
    validate_schedule_params(pp, v, nc, nmb)
    tmb = nmb * v
    if all_forward_all_backward or degenerates_to_afab(pp, nc):
        return tmb
    return min(warmup_microbatches(pp, ppr, v, nc) + 1, tmb)


def warmup_forward_ops(pp: int, ppr: int, v: int, nc: int, nmb: int) -> int:
    """Forward ops a rank executes before its first backward in the
    flexible (non-degenerate) schedule.

    This is the Section 3.1.1 warm-up depth plus the one forward whose
    backward immediately follows in steady state, capped at the rank's
    total op count per direction.  The schedule generator builds from this
    value; :mod:`repro.verify.invariants` re-derives the same quantity from
    the raw :func:`warmup_microbatches` formula so a bug in either copy
    shows up as a warm-up-depth violation.
    """
    validate_schedule_params(pp, v, nc, nmb)
    return min(warmup_microbatches(pp, ppr, v, nc) + 1, nmb * v)


def bubble_ratio(pp: int, nmb: int, v: int) -> float:
    """Ideal PP bubble ratio (idle / compute) = (pp - 1) / (nmb * v).

    This is the Section 3.1.1 formula; it ignores exposed P2P and workload
    imbalance, which the event-level simulator adds back.
    """
    if pp < 1 or nmb < 1 or v < 1:
        raise ValueError("pp, nmb, v must be >= 1")
    return (pp - 1) / float(nmb * v)


def extra_warmup_vs_interleaved(pp: int, v: int, nc: int) -> int:
    """Extra in-flight warm-up micro-batches of flexible PP over the
    original interleaved 1F1B (which fixes nc = pp).

    When ``nc > pp`` the flexible schedule inserts ``nc - pp`` extra
    micro-batches per virtual stage into warm-up to hide P2P (Figure 3),
    costing ``(nc - pp) * (v - 1)`` additional in-flight micro-batches
    (Section 3.1.1).  When ``nc <= pp`` there is no extra memory.
    """
    if pp < 1 or v < 1 or nc < 1:
        raise ValueError("pp, v, nc must be >= 1")
    return max(nc - pp, 0) * (v - 1)


def default_nc(pp: int, nmb: int) -> int:
    """Largest valid ``nc`` (divisor of nmb) not exceeding ``pp``.

    The original interleaved 1F1B fixes ``nc = pp``; when nmb is not a
    multiple of pp, flexible PP picks the largest round size that still
    divides nmb evenly.
    """
    if pp < 1 or nmb < 1:
        raise ValueError("pp and nmb must be >= 1")
    for candidate in range(min(pp, nmb), 0, -1):
        if nmb % candidate == 0:
            return candidate
    return 1


def degenerates_to_afab(pp: int, nc: int) -> bool:
    """Whether nc < pp, which degenerates flexible PP into
    all-forward-all-backward (Section 3.1.1)."""
    return nc < pp


def _coerce_scale(
    name: str, raw: Optional[Sequence[float]], expected_len: int
) -> Optional[Tuple[float, ...]]:
    """Normalise a compute-scale profile to a tuple of positive floats."""
    if raw is None:
        return None
    scale = tuple(float(x) for x in raw)
    if len(scale) != expected_len:
        raise ValueError(
            f"{name} must have {expected_len} entries; got {len(scale)}"
        )
    for i, x in enumerate(scale):
        if not x > 0.0:
            raise ValueError(f"{name}[{i}] must be > 0; got {x}")
    return scale


@dataclass(frozen=True)
class ScheduleShape:
    """Static description of a flexible-PP run: sizes only, no timing.

    The optional compute-scale profiles describe *heterogeneous* pipelines
    (ROADMAP item 4): ``stage_compute_scale[s]`` multiplies the compute
    time of global stage ``s`` (mixed H100/H200/B200 racks, or a ViT
    encoder occupying the first stages — see
    :mod:`repro.pp.heterogeneity`), and ``microbatch_compute_scale[mb]``
    multiplies micro-batch ``mb`` (DIP-style variable-length multimodal
    batches).  ``None`` (the default) means a uniform pipeline and is
    bitwise-identical to the pre-heterogeneity behaviour.
    """

    pp: int
    v: int
    nc: int
    nmb: int
    stage_compute_scale: Optional[Tuple[float, ...]] = None
    microbatch_compute_scale: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        validate_schedule_params(self.pp, self.v, self.nc, self.nmb)
        object.__setattr__(
            self,
            "stage_compute_scale",
            _coerce_scale(
                "stage_compute_scale",
                self.stage_compute_scale,
                self.pp * self.v,
            ),
        )
        object.__setattr__(
            self,
            "microbatch_compute_scale",
            _coerce_scale(
                "microbatch_compute_scale",
                self.microbatch_compute_scale,
                self.nmb,
            ),
        )

    @property
    def is_heterogeneous(self) -> bool:
        """True when any non-trivial compute-scale profile is attached."""
        return (
            self.stage_compute_scale is not None
            or self.microbatch_compute_scale is not None
        )

    def compute_scale(self, global_stage: int, microbatch: int) -> float:
        """Combined compute multiplier for one (stage, micro-batch) op."""
        scale = 1.0
        if self.stage_compute_scale is not None:
            scale *= self.stage_compute_scale[global_stage]
        if self.microbatch_compute_scale is not None:
            scale *= self.microbatch_compute_scale[microbatch]
        return scale

    @property
    def tmb(self) -> int:
        """Total micro-batch executions per rank (= nmb * v)."""
        return self.nmb * self.v

    @property
    def rounds(self) -> int:
        """Rounds of nc consecutive micro-batches per virtual stage."""
        return self.nmb // self.nc

    def peak_in_flight(self, ppr: int) -> int:
        return peak_in_flight_microbatches(
            self.pp, ppr, self.v, self.nc, self.nmb)
