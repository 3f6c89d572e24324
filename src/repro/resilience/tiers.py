"""Tiered checkpointing: peer-replica, node-local, and remote stores.

Section 6 production practice is not one checkpoint store but a
hierarchy, because write cost and survivability pull in opposite
directions:

``peer``
    Each node streams its shard to a *peer node in the same rack* (one
    leaf-switch hop), holding the replica in HBM/DRAM.  Writes ride the
    scale-out NIC at full :meth:`~repro.hardware.cluster.ClusterSpec.
    inter_node_bandwidth` — the fastest tier — but a rack-level event
    (PDU, leaf switch) destroys both the primary and its replica, so the
    tier only survives single-node loss.
``local``
    Each node writes its shard to its own NVMe scratch
    (``local_ssd_bandwidth_per_node``).  Cheap, but the checkpoint is
    *sharded*: losing any node loses that node's shard and the global
    checkpoint with it, so the tier survives no hardware-loss domain at
    all — it exists to make software-only rollbacks (collective-retry
    escalations, corruption rollbacks) cheap.
``remote``
    The durable blob store
    (:meth:`~repro.hardware.cluster.ClusterSpec.
    checkpoint_bandwidth_per_node` — the slowest path).  Survives every
    failure domain; it is the only tier that can anchor recovery from a
    rack or pod outage.

Restart selects the newest checkpoint on any tier that *survived* the
failure's domain, breaking step ties toward the cheaper read.  The
survivability matrix (failure domain × tier) is pinned byte-stable by
``tests/golden/resilience_survivability.json``.

:class:`TieredCheckpoint` composes one interval policy per tier — e.g.
Young-Daly at every tier prices each interval against that tier's own
write cost, so the cheap peer tier checkpoints often and the expensive
remote tier rarely, which is exactly the configuration that beats
remote-only Young-Daly under rack-correlated failures (a pinned headline
result in ``tests/test_resilience_run.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.hardware.cluster import ClusterSpec
from repro.model.config import TextModelConfig
from repro.resilience.policy import (
    CheckpointPolicy,
    FixedInterval,
    NoCheckpoint,
    YoungDaly,
    checkpoint_bytes,
    shard_transfer_seconds,
)

#: Checkpoint tiers, fastest (and least survivable) first.  Restore
#: tie-breaks between same-step checkpoints follow this order.
TIER_NAMES = ("peer", "local", "remote")

#: Failure domains a restore may have to survive, smallest first.
#: ``none`` is a software-only abort (retry escalation, corruption
#: rollback): no hardware was lost, so every tier survives it.
FAILURE_DOMAINS = ("none", "node_loss", "rack_loss", "pod_loss")

#: domain -> tiers whose checkpoints remain restorable after it.
_SURVIVES: Dict[str, Tuple[str, ...]] = {
    "none": ("peer", "local", "remote"),
    # The replica lives on a peer node: the shard survives its owner.
    "node_loss": ("peer", "remote"),
    # Primary and replica share the rack; NVMe shards die with nodes.
    "rack_loss": ("remote",),
    "pod_loss": ("remote",),
}


def tier_bandwidth_per_node(tier: str, cluster: ClusterSpec) -> float:
    """Bytes/s one node sustains writing to (or reading from) a tier."""
    if tier == "peer":
        return cluster.inter_node_bandwidth()
    if tier == "local":
        return cluster.local_ssd_bandwidth_per_node
    if tier == "remote":
        return cluster.checkpoint_bandwidth_per_node()
    raise ValueError(f"unknown checkpoint tier {tier!r}; "
                     f"choose one of {TIER_NAMES}")


def tier_write_seconds(
    tier: str, model: TextModelConfig, cluster: ClusterSpec, ngpu: int,
) -> float:
    """Seconds to write one checkpoint to ``tier`` from ``ngpu`` GPUs.

    The state is sharded across the fleet (every rank owns a disjoint
    optimizer shard under ZeRO), so all nodes write their share in
    parallel and the wall time is the per-node share over the tier's
    per-node bandwidth.
    """
    if ngpu < 1:
        raise ValueError("ngpu must be >= 1")
    return shard_transfer_seconds(
        checkpoint_bytes(model), max(ngpu // cluster.gpus_per_node, 1),
        tier_bandwidth_per_node(tier, cluster),
        what=f"{tier}-tier checkpoint bandwidth")


def tier_read_seconds(
    tier: str, model: TextModelConfig, cluster: ClusterSpec, ngpu: int,
) -> float:
    """Seconds to restore one checkpoint from ``tier`` onto ``ngpu`` GPUs.

    Symmetric to the write: every node pulls its shard in parallel.  A
    shrunken fleet reads the same global payload over fewer nodes, so
    restores get slower as capacity is lost — which the elastic-replan
    path in :mod:`repro.resilience.run` prices per segment.
    """
    return tier_write_seconds(tier, model, cluster, ngpu)


def tier_survives(tier: str, domain: str) -> bool:
    """Whether a checkpoint on ``tier`` is restorable after ``domain``."""
    if domain not in _SURVIVES:
        raise ValueError(f"unknown failure domain {domain!r}; "
                         f"choose one of {FAILURE_DOMAINS}")
    if tier not in TIER_NAMES:
        raise ValueError(f"unknown checkpoint tier {tier!r}; "
                         f"choose one of {TIER_NAMES}")
    return tier in _SURVIVES[domain]


def survivability_matrix() -> Dict[str, Dict[str, bool]]:
    """The full failure-domain × tier survivability table."""
    return {
        domain: {tier: tier_survives(tier, domain) for tier in TIER_NAMES}
        for domain in FAILURE_DOMAINS
    }


@dataclass(frozen=True)
class TieredCheckpoint:
    """Compose one interval policy per checkpoint tier.

    ``tiers`` maps tier name → sub-policy; each sub-policy's interval is
    derived from *that tier's* write cost, so ``tiered:auto`` (Young-Daly
    everywhere) naturally checkpoints the peer tier often and the remote
    tier rarely.  At least one tier must actually checkpoint, and the
    composition is only useful when some tier survives hardware loss —
    both are validated here rather than discovered mid-run.
    """

    tiers: Tuple[Tuple[str, CheckpointPolicy], ...]

    kind_label = "tiered"

    def __post_init__(self) -> None:
        seen = set()
        for name, _policy in self.tiers:
            if name not in TIER_NAMES:
                raise ConfigError(
                    f"unknown checkpoint tier {name!r}; "
                    f"choose from {TIER_NAMES}")
            if name in seen:
                raise ConfigError(f"duplicate checkpoint tier {name!r}")
            seen.add(name)
        if not any(not isinstance(p, NoCheckpoint) for _n, p in self.tiers):
            raise ConfigError(
                "tiered policy must checkpoint on at least one tier")

    def describe(self) -> str:
        parts = ", ".join(
            f"{name}: {policy.describe()}" for name, policy in self.tiers)
        return f"tiered checkpoints ({parts})"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind_label,
            "tiers": {name: policy.to_dict()
                      for name, policy in self.tiers},
        }


def tier_intervals(
    policy: CheckpointPolicy | TieredCheckpoint, step_seconds: float, write_seconds: Dict[str, float],
    mtbf_seconds: float,
) -> Dict[str, Optional[int]]:
    """Per-tier interval in steps, each from its own write cost.

    Takes any policy: a single-tier one is the ``remote`` tier alone.
    """
    tiers = (policy.tiers if isinstance(policy, TieredCheckpoint)
             else (("remote", policy),))
    return {name: tier_policy.interval_steps(
                step_seconds, write_seconds[name], mtbf_seconds)
            for name, tier_policy in tiers}


#: Default tiered composition: Young-Daly at every tier, each priced
#: against its own write cost.
AUTO_TIERED = (("peer", YoungDaly()), ("local", YoungDaly()),
               ("remote", YoungDaly()))


def parse_tiered_policy(spec: str) -> TieredCheckpoint:
    """Parse the ``tiered:`` policy body.

    ``auto`` composes Young-Daly on every tier; otherwise give
    ``tier=interval`` pairs where interval is ``young-daly``, ``none``,
    or an integer step count — e.g. ``tiered:peer=4,remote=young-daly``.
    Unnamed tiers default to ``none``.
    """
    body = spec.partition(":")[2].strip()
    if body == "auto":
        return TieredCheckpoint(tiers=AUTO_TIERED)
    if not body:
        raise ConfigError(
            f"empty tiered policy {spec!r}; expected tiered:auto or "
            "tiered:<tier>=<interval>[,...] with tier in "
            f"{TIER_NAMES} and interval one of young-daly | none | <steps>")
    tiers = []
    for part in filter(None, (p.strip() for p in body.split(","))):
        name, eq, value = part.partition("=")
        name, value = name.strip(), value.strip()
        if not eq or name not in TIER_NAMES:
            raise ConfigError(
                f"bad tiered policy field {part!r}; expected "
                f"<tier>=<interval> with tier in {TIER_NAMES}")
        if value in ("young-daly", "young_daly"):
            policy: CheckpointPolicy = YoungDaly()
        elif value == "none":
            policy = NoCheckpoint()
        else:
            try:
                policy = FixedInterval(every_steps=int(value))
            except ValueError:
                raise ConfigError(
                    f"bad tiered interval {part!r}; expected "
                    "young-daly | none | <steps>") from None
        tiers.append((name, policy))
    return TieredCheckpoint(tiers=tuple(tiers))


__all__ = [
    "TIER_NAMES",
    "FAILURE_DOMAINS",
    "TieredCheckpoint",
    "AUTO_TIERED",
    "parse_tiered_policy",
    "survivability_matrix",
    "tier_bandwidth_per_node",
    "tier_intervals",
    "tier_read_seconds",
    "tier_survives",
    "tier_write_seconds",
]
