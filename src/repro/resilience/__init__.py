"""Run-level resilience: checkpoint/restart policy, retries, replanning.

The paper trains on 16K H100s, where failures are routine; this package
adds the first time axis above the single optimizer step.  A seeded
failure process with a correlated-domain taxonomy
(:mod:`repro.resilience.failures` — node/rack/pod fail-stop, gray
degradation, silent corruption) drives a multi-step run simulator
(:mod:`repro.resilience.run`) whose recovery behaviour is a policy
object (:mod:`repro.resilience.policy`): when to checkpoint (never /
fixed / Young-Daly-optimal, optionally composed across peer/local/remote
tiers via :mod:`repro.resilience.tiers`), how collectives retry
(:class:`repro.sim.collectives.RetryPolicy`), whether permanent capacity
loss triggers an elastic replan or a wait for replacement, and whether
the Section 6.1 detect–mitigate loop
(:mod:`repro.resilience.mitigation`) hunts gray failures.  Reports are
goodput-over-wallclock (``repro run``); see ``docs/resilience.md``.
"""

from repro.resilience.failures import (
    CORRELATED_DOMAINS,
    TAXONOMY_PRESETS,
    FailureEvent,
    FailureProcess,
    FailureTaxonomy,
    parse_taxonomy,
)
from repro.resilience.mitigation import (
    DetectorModel,
    MitigationDecision,
    choose_mitigation,
    parse_detector,
)
from repro.resilience.policy import (
    CheckpointPolicy,
    FixedInterval,
    NoCheckpoint,
    YoungDaly,
    checkpoint_bytes,
    parse_policy,
    shard_transfer_seconds,
)
from repro.resilience.run import (
    BUCKETS,
    MITIGATIONS,
    FleetSegment,
    RunConfig,
    RunResult,
    simulate_run,
)
from repro.resilience.tiers import (
    FAILURE_DOMAINS,
    TIER_NAMES,
    TieredCheckpoint,
    parse_tiered_policy,
    survivability_matrix,
    tier_read_seconds,
    tier_survives,
    tier_write_seconds,
)

__all__ = [
    "CORRELATED_DOMAINS",
    "TAXONOMY_PRESETS",
    "FailureEvent",
    "FailureProcess",
    "FailureTaxonomy",
    "parse_taxonomy",
    "DetectorModel",
    "MitigationDecision",
    "choose_mitigation",
    "parse_detector",
    "CheckpointPolicy",
    "FixedInterval",
    "NoCheckpoint",
    "YoungDaly",
    "checkpoint_bytes",
    "parse_policy",
    "shard_transfer_seconds",
    "BUCKETS",
    "MITIGATIONS",
    "FleetSegment",
    "RunConfig",
    "RunResult",
    "simulate_run",
    "FAILURE_DOMAINS",
    "TIER_NAMES",
    "TieredCheckpoint",
    "parse_tiered_policy",
    "survivability_matrix",
    "tier_read_seconds",
    "tier_survives",
    "tier_write_seconds",
]
