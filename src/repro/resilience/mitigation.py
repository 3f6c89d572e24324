"""The Section 6.1 detect–mitigate loop: notice gray failures, then act.

Gray failures are the fleet problems that never crash anything: a
thermally throttled GPU, a flapping link negotiated down a generation.
The run keeps "working" while every step quietly pays a tax.  Section
6.1's answer is a monitoring loop — detect the slow rank from timing
telemetry, localise it with the top-down search, then decide whether to
evict the host or tolerate the degradation.

This module models that loop for :func:`repro.resilience.run.
simulate_run`:

* :class:`DetectorModel` — detection is neither instant nor perfect.
  A gray fault becomes *eligible* for detection only after
  ``latency_steps`` degraded steps (the telemetry window the detector
  needs), each subsequent check misses with probability
  ``false_negative_rate``, and every healthy step can still trip a
  spurious alarm with probability ``false_positive_rate``.  Detector
  randomness runs on its **own seeded stream** (derived from the run
  seed), so arming the detector never perturbs the failure sequence.
* :func:`localise_gray_fault` — closes the loop against the *real*
  Section 6.1 machinery: for worlds small enough to trace every rank it
  injects the equivalent fault into the synthetic workload and runs
  :func:`repro.faults.detect.score_detection`; eviction only heals the
  fault if the search actually pinned the culprit rank.
* :func:`choose_mitigation` — evict-and-replan vs tolerate as a cost
  projection over the remaining steps: eviction pays a drain checkpoint,
  restart, restore, and a permanently slower fleet; toleration pays the
  gray tax forever.  The decision (with both projections) lands on the
  timeline and in the ``repro.resilience/v2`` report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.faults.models import ComputeStraggler, DegradedLink, FaultPlan
from repro.parallel.config import ParallelConfig

#: Worlds up to this size run the real trace-every-rank localisation;
#: larger worlds assume the search succeeds (it operates on aggregated
#: per-group telemetry and does not degrade with scale the way tracing
#: does — the cap is a simulation-cost bound, not a claim about §6.1).
MAX_TRACED_WORLD = 256

#: Seed-stream tag for the detector RNG: keeps detector draws disjoint
#: from the failure process under the same run seed.
DETECTOR_STREAM = 0xD37EC7


@dataclass(frozen=True)
class DetectorModel:
    """Latency and error model for the slow-rank detector."""

    #: Degraded steps before a gray fault is first checkable.
    latency_steps: int = 2
    #: Per-check probability an eligible fault goes unnoticed.
    false_negative_rate: float = 0.1
    #: Per-step probability of a spurious alarm on a healthy fleet.
    false_positive_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_steps < 0:
            raise ConfigError("latency_steps must be >= 0")
        for name in ("false_negative_rate", "false_positive_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must be in [0, 1) (got {value})")

    def rng(self, seed: int) -> np.random.Generator:
        """The detector's own stream for a given run seed."""
        return np.random.default_rng((seed, DETECTOR_STREAM))

    def detects(self, age_steps: int, rng: np.random.Generator) -> bool:
        """One detection check on a fault ``age_steps`` degraded steps old.

        Always consumes exactly one draw once the fault is eligible (the
        fixed-draw discipline that keeps mitigation runs deterministic).
        """
        if age_steps < self.latency_steps:
            return False
        return bool(rng.random() >= self.false_negative_rate)

    def false_alarm(self, rng: np.random.Generator) -> bool:
        """One per-step spurious-alarm draw (consumed every armed step)."""
        return bool(rng.random() < self.false_positive_rate)

    def to_dict(self) -> dict:
        return {
            "latency_steps": self.latency_steps,
            "false_negative_rate": self.false_negative_rate,
            "false_positive_rate": self.false_positive_rate,
        }


def parse_detector(spec: str) -> DetectorModel:
    """Parse ``--detector latency=2,fn=0.1,fp=0.02`` CLI specs."""
    fields = {"latency": "latency_steps", "fn": "false_negative_rate",
              "fp": "false_positive_rate"}
    kwargs = {}
    for part in filter(None, (p.strip() for p in spec.split(","))):
        key, eq, value = part.partition("=")
        field = fields.get(key.strip())
        if not eq or field is None:
            raise ConfigError(
                f"bad detector field {part!r}; expected "
                f"{sorted(fields)} as key=value pairs")
        try:
            number = float(value.strip())
        except ValueError:
            raise ConfigError(
                f"cannot parse detector value {part!r} as a number"
            ) from None
        kwargs[field] = int(number) if field == "latency_steps" else number
    return DetectorModel(**kwargs)


def gray_fault_plan(gray_kind: str, rank: int, compute_scale: float,
                    link_scale: float) -> FaultPlan:
    """The injected-fault equivalent of one gray failure."""
    if gray_kind == "compute":
        return FaultPlan(faults=(ComputeStraggler(
            rank=rank, extra_seconds=0.0, scale=compute_scale),))
    if gray_kind == "link":
        # The flaky NIC degrades the gradient sync its rank participates
        # in — the dp dimension is the one riding the scale-out network.
        return FaultPlan(faults=(DegradedLink(
            dim="dp", scale=link_scale, rank=rank),))
    raise ValueError(f"unknown gray fault kind {gray_kind!r}")


def localise_gray_fault(
    parallel: ParallelConfig, gray_kind: str, rank: int,
    compute_scale: float, link_scale: float,
) -> bool:
    """Did the Section 6.1 search pin this gray fault's culprit?

    Compute-gray faults in traceable worlds run the real
    inject-then-localise round trip; link-gray faults are group-visible
    rather than rank-exact (``expected_detection`` returns no single
    culprit), so — like large worlds — they score as localised: the
    search names the degraded dp group, which is enough to pick the host
    to evict.
    """
    if parallel.world_size > MAX_TRACED_WORLD or gray_kind != "compute":
        return True
    from repro.faults.detect import score_detection
    from repro.parallel.mesh import DeviceMesh

    plan = gray_fault_plan(gray_kind, rank, compute_scale, link_scale)
    score, _sim = score_detection(DeviceMesh(parallel), plan)
    return score.exact_hit


@dataclass(frozen=True)
class MitigationDecision:
    """One pass through the decide step of the loop, fully costed."""

    step: int
    time_seconds: float
    gray_kind: str
    rank: int
    decision: str  # "evict" | "tolerate" | "false_positive"
    detected_after_steps: int
    localised: bool
    tax_seconds_per_step: float
    projected_tolerate_seconds: float
    projected_evict_seconds: float

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "time_seconds": self.time_seconds,
            "gray_kind": self.gray_kind,
            "rank": self.rank,
            "decision": self.decision,
            "detected_after_steps": self.detected_after_steps,
            "localised": self.localised,
            "tax_seconds_per_step": self.tax_seconds_per_step,
            "projected_tolerate_seconds": self.projected_tolerate_seconds,
            "projected_evict_seconds": self.projected_evict_seconds,
        }


def choose_mitigation(
    tax_seconds_per_step: float,
    remaining_steps: int,
    evict_fixed_seconds: float,
    evict_extra_per_step: float,
) -> tuple:
    """Evict-and-replan vs tolerate, by projected cost to end of run.

    Toleration pays the gray tax on every remaining step; eviction pays
    its fixed cost (drain checkpoint + restart + restore + any
    replacement wait) plus the per-step slowdown of running on a smaller
    fleet.  Returns ``(decision, tolerate_cost, evict_cost)`` — eviction
    must be *strictly* cheaper to win, so a zero-tax false alarm always
    tolerates.
    """
    if remaining_steps < 0:
        raise ValueError("remaining_steps must be >= 0")
    tolerate = tax_seconds_per_step * remaining_steps
    evict = evict_fixed_seconds + evict_extra_per_step * remaining_steps
    return ("evict" if evict < tolerate else "tolerate", tolerate, evict)


__all__ = [
    "DETECTOR_STREAM",
    "MAX_TRACED_WORLD",
    "DetectorModel",
    "MitigationDecision",
    "choose_mitigation",
    "gray_fault_plan",
    "localise_gray_fault",
    "parse_detector",
]
