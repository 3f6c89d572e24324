"""Checkpoint/restart policies and the checkpoint payload.

A policy answers one question: *after how many steps should the run pay
for a checkpoint?*  Its inputs are the three quantities the classical
analysis needs — healthy step time, checkpoint write time, and fleet
MTBF — and its output is an interval in whole steps (or ``None`` for the
no-checkpoint baseline).

The checkpoint write itself is priced from first principles rather than
assumed: the payload is the training state the run must persist to
resume exactly (:func:`repro.model.memory.training_state_bytes` — BF16
weights plus full Adam state), sharded evenly across the nodes doing the
writing, against the per-node bandwidth of the tier it lands on
(:func:`repro.resilience.tiers.tier_write_seconds`).  A single-tier
policy here is the ``remote`` tier alone — the durable store behind
:meth:`repro.hardware.cluster.ClusterSpec.checkpoint_bandwidth_per_node`.

:class:`YoungDaly` implements the classical optimum
``W_opt = sqrt(2 * C * MTBF)`` (Young 1974, Daly 2006): checkpoint when
the expected rework saved equals the checkpoint cost paid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import ConfigError
from repro.model.config import TextModelConfig
from repro.model.memory import training_state_bytes


def checkpoint_bytes(model: TextModelConfig) -> float:
    """Global checkpoint payload in bytes (weights + optimizer state)."""
    return training_state_bytes(model)


def shard_transfer_seconds(
    payload_bytes: float, nodes: int, bandwidth_per_node: float,
    what: str = "checkpoint bandwidth",
) -> float:
    """Wall seconds to move ``payload_bytes`` sharded over ``nodes``
    writers/readers at ``bandwidth_per_node`` each.

    Degenerate inputs are handled explicitly: an empty payload costs
    exactly ``0.0`` seconds (and never touches the bandwidth), while a
    zero or negative bandwidth is a configuration error reported as a
    ``ValueError`` naming the offending quantity — not a bare
    ``ZeroDivisionError`` from deep inside the pricing.
    """
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be >= 0")
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    if payload_bytes == 0:
        return 0.0
    if bandwidth_per_node <= 0:
        raise ValueError(
            f"{what} must be > 0 bytes/s (got {bandwidth_per_node!r}); "
            "check the cluster's link and storage bandwidths")
    return payload_bytes / nodes / bandwidth_per_node


@dataclass(frozen=True)
class NoCheckpoint:
    """Baseline: never checkpoint; any failure restarts from step 0."""

    kind_label = "none"

    def interval_steps(
        self, step_seconds: float, checkpoint_seconds: float,
        mtbf_seconds: float,
    ) -> Optional[int]:
        return None

    def describe(self) -> str:
        return "no checkpoints (restart from scratch on failure)"

    def to_dict(self) -> dict:
        return {"kind": self.kind_label}


@dataclass(frozen=True)
class FixedInterval:
    """Checkpoint every ``every_steps`` steps, MTBF-blind."""

    every_steps: int

    kind_label = "fixed"

    def __post_init__(self) -> None:
        if self.every_steps < 1:
            raise ConfigError("every_steps must be >= 1")

    def interval_steps(
        self, step_seconds: float, checkpoint_seconds: float,
        mtbf_seconds: float,
    ) -> Optional[int]:
        return self.every_steps

    def describe(self) -> str:
        return f"fixed interval: every {self.every_steps} steps"

    def to_dict(self) -> dict:
        return {"kind": self.kind_label, "every_steps": self.every_steps}


@dataclass(frozen=True)
class YoungDaly:
    """Young/Daly-optimal interval: ``W_opt = sqrt(2 * C * MTBF)``.

    ``W_opt`` is the optimal amount of *work* between checkpoints; the
    policy rounds it to whole steps (at least one).  Checkpointing more
    often wastes write time; less often wastes expected rework — the
    optimum balances the two, which is exactly what the acceptance test
    in ``tests/test_resilience_run.py`` pins against both extremes.
    """

    kind_label = "young_daly"

    def interval_steps(
        self, step_seconds: float, checkpoint_seconds: float,
        mtbf_seconds: float,
    ) -> Optional[int]:
        if step_seconds <= 0:
            raise ValueError("step_seconds must be > 0")
        if checkpoint_seconds < 0 or mtbf_seconds <= 0:
            raise ValueError(
                "need checkpoint_seconds >= 0 and mtbf_seconds > 0")
        w_opt = math.sqrt(2.0 * checkpoint_seconds * mtbf_seconds)
        return max(1, round(w_opt / step_seconds))

    def describe(self) -> str:
        return "Young/Daly-optimal interval: sqrt(2 * C * MTBF)"

    def to_dict(self) -> dict:
        return {"kind": self.kind_label}


CheckpointPolicy = Union[NoCheckpoint, FixedInterval, YoungDaly]


def parse_policy(spec: str) -> CheckpointPolicy:
    """Parse a CLI policy spec: ``none``, ``young-daly``, ``fixed:N``, or
    ``tiered:...`` (see :func:`repro.resilience.tiers.parse_tiered_policy`
    for the tiered grammar).

    Raises :class:`~repro.errors.ConfigError` with a usage hint on any
    malformed spec.
    """
    head, _, rest = spec.partition(":")
    head = head.strip()
    if head == "none":
        return NoCheckpoint()
    if head in ("young-daly", "young_daly"):
        return YoungDaly()
    if head == "fixed":
        try:
            return FixedInterval(every_steps=int(rest.strip()))
        except ValueError:
            raise ConfigError(
                f"bad fixed-interval policy {spec!r}; expected fixed:<steps>"
            ) from None
    if head == "tiered":
        # Local import: tiers builds on this module's pricing helpers.
        from repro.resilience.tiers import parse_tiered_policy
        return parse_tiered_policy(spec)
    raise ConfigError(
        f"unknown policy {spec!r}; choose none | young-daly | "
        "fixed:<steps> | tiered:...")
