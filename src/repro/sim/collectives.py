"""Analytical cost models for NCCL-style collectives.

All models are ring-algorithm based, the NCCL default at these group sizes:

* **all-gather** of a total output of ``S`` bytes over ``n`` ranks performs
  ``n - 1`` steps, each moving an ``S / n``-byte shard to the neighbour, so
  ``t = (n - 1) * (alpha + (S / n) / bw_eff)``.
* **reduce-scatter** is symmetric to all-gather.
* **broadcast** uses a binomial tree: ``ceil(log2 n)`` hops of the full
  payload.
* **all-to-all** (the MoE expert dispatch/combine collective) uses the
  pairwise-exchange algorithm: each rank trades a distinct ``S / n``-byte
  shard with each of its ``n - 1`` peers.  Unlike the ring models it is
  priced *hierarchically*: exchanges with same-node peers ride the
  intra-node link, cross-node exchanges the inter-node fabric, and the
  group completes when its worst-placed rank (the one with the most
  cross-node peers) finishes.

``bw_eff`` is the message-size-dependent effective bandwidth of the slowest
link in the group (Section 5.2: a collective runs at the speed of its
slowest hop).  A ``congestion`` factor > 1 divides the available bandwidth,
modelling the FSDP/PP traffic interference of Section 3.1.3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.hardware.cluster import ClusterSpec
from repro.hardware.network import LinkSpec, effective_bandwidth
from repro.ordered_sum import ordered_sum

#: Default collective watchdog timeout, in simulated seconds.  This is the
#: single constant behind every timeout-shaped behaviour in the repo: a
#: :class:`repro.faults.HungRank` with ``timeout_seconds=None`` stalls at
#: most this long (NCCL-watchdog-then-recover), and a failed collective
#: attempt under :class:`RetryPolicy` occupies its stream for exactly this
#: long before backing off.  Real NCCL defaults to minutes; the simulated
#: workloads run seconds-long steps, so the constant is scaled to match.
DEFAULT_COLLECTIVE_TIMEOUT_SECONDS = 30.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for failed collectives.

    Models the runtime's recovery ladder for transient network faults: a
    collective that does not complete within ``timeout_seconds`` is torn
    down by the watchdog, the group backs off
    ``backoff_base_seconds * backoff_multiplier**attempt`` (attempt 0 is
    the first failure), and the collective is re-issued — at most
    ``max_retries`` times before the job aborts and restarts from its
    last checkpoint (:mod:`repro.resilience`).
    """

    max_retries: int = 3
    timeout_seconds: float = DEFAULT_COLLECTIVE_TIMEOUT_SECONDS
    backoff_base_seconds: float = 1.0
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be > 0")
        if self.backoff_base_seconds < 0:
            raise ValueError("backoff_base_seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")

    def backoff_seconds(self, attempt: int) -> float:
        """Backoff after the ``attempt``-th failure (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        return self.backoff_base_seconds * self.backoff_multiplier**attempt

    def retry_overhead_seconds(self, failed_attempts: int) -> float:
        """Total time ``failed_attempts`` timeouts + backoffs add before
        the successful attempt starts."""
        return ordered_sum(
            self.timeout_seconds + self.backoff_seconds(k)
            for k in range(failed_attempts)
        )

    def exhausted_by(self, failed_attempts: int) -> bool:
        """Whether this many failures exceeds the retry budget (the
        caller should abort-and-restart rather than retry again)."""
        return failed_attempts > self.max_retries

    def to_dict(self) -> dict:
        return {
            "max_retries": self.max_retries,
            "timeout_seconds": self.timeout_seconds,
            "backoff_base_seconds": self.backoff_base_seconds,
            "backoff_multiplier": self.backoff_multiplier,
        }


#: The policy used when a caller requests retries without supplying one.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass(frozen=True)
class CollectiveCost:
    """Result of a collective cost query.

    Attributes:
        seconds: Predicted wall-clock time of the collective.
        bytes_on_wire: Bytes each rank sends over the network.
        algorithm_bandwidth: Collective "bus bandwidth" in bytes/s —
            total payload divided by time, the metric Figure 12 plots.
    """

    seconds: float
    bytes_on_wire: float
    algorithm_bandwidth: float


def _group_link(cluster: ClusterSpec, ranks: Sequence[int]) -> LinkSpec:
    return cluster.group_link(ranks)


def _ring_steps_time(
    link: LinkSpec, shard_bytes: float, steps: int, congestion: float
) -> float:
    if steps == 0:
        return 0.0
    bw = effective_bandwidth(link, max(shard_bytes, 1.0)) / congestion
    return steps * (link.latency + shard_bytes / bw)


def all_gather_time(
    cluster: ClusterSpec,
    ranks: Sequence[int],
    total_bytes: float,
    congestion: float = 1.0,
) -> CollectiveCost:
    """Ring all-gather producing ``total_bytes`` of output on every rank."""
    _validate(ranks, total_bytes, congestion)
    n = len(ranks)
    if n == 1:
        return CollectiveCost(seconds=0.0, bytes_on_wire=0.0,
                              algorithm_bandwidth=float("inf"))
    link = _group_link(cluster, ranks)
    shard = total_bytes / n
    seconds = _ring_steps_time(link, shard, n - 1, congestion)
    wire = shard * (n - 1)
    return CollectiveCost(
        seconds=seconds,
        bytes_on_wire=wire,
        algorithm_bandwidth=total_bytes / seconds,
    )


def reduce_scatter_time(
    cluster: ClusterSpec,
    ranks: Sequence[int],
    total_bytes: float,
    congestion: float = 1.0,
) -> CollectiveCost:
    """Ring reduce-scatter over an input of ``total_bytes`` per rank."""
    # Symmetric to all-gather in the ring model.
    return all_gather_time(cluster, ranks, total_bytes, congestion)


def broadcast_time(
    cluster: ClusterSpec,
    ranks: Sequence[int],
    total_bytes: float,
) -> CollectiveCost:
    """Binomial-tree broadcast of ``total_bytes`` from the first rank."""
    _validate(ranks, total_bytes, 1.0)
    n = len(ranks)
    if n == 1:
        return CollectiveCost(0.0, 0.0, float("inf"))
    link = _group_link(cluster, ranks)
    hops = math.ceil(math.log2(n))
    # max(..., 1.0) mirrors _ring_steps_time: a zero-byte broadcast is
    # latency-only (hops * alpha), not a ValueError.
    bw = effective_bandwidth(link, max(total_bytes, 1.0))
    seconds = hops * (link.latency + total_bytes / bw)
    return CollectiveCost(
        seconds=seconds,
        bytes_on_wire=total_bytes,
        algorithm_bandwidth=total_bytes / seconds,
    )


def all_to_all_time(
    cluster: ClusterSpec,
    ranks: Sequence[int],
    total_bytes: float,
    congestion: float = 1.0,
) -> CollectiveCost:
    """Pairwise-exchange all-to-all over ``total_bytes`` of input per rank
    (the MoE dispatch/combine collective).

    Each rank holds ``total_bytes`` of routed tokens, sends a distinct
    ``total_bytes / n`` shard to each of its ``n - 1`` peers, and keeps
    its own shard.  Exchanges are serialised per rank (one NIC), so a
    rank's time is the sum over its peers of per-exchange transfer
    times — same-node peers at the intra-node link, cross-node peers at
    the inter-node fabric.  The collective completes when the
    worst-placed rank (most cross-node peers) finishes.
    """
    _validate(ranks, total_bytes, congestion)
    n = len(ranks)
    if n == 1:
        return CollectiveCost(0.0, 0.0, float("inf"))
    shard = total_bytes / n
    node_counts: dict = {}
    for r in ranks:
        node = cluster.node_of(r)
        node_counts[node] = node_counts.get(node, 0) + 1
    # A rank on the group's most-populated node has the fewest cross-node
    # peers; the slowest rank sits on the least-populated node.
    max_inter = n - min(node_counts.values())
    seconds = (
        _ring_steps_time(cluster.intra_node_link, shard,
                         (n - 1) - max_inter, congestion)
        + _ring_steps_time(cluster.inter_node_link, shard,
                           max_inter, congestion)
    )
    return CollectiveCost(
        seconds=seconds,
        bytes_on_wire=shard * (n - 1),
        algorithm_bandwidth=total_bytes / seconds,
    )


def p2p_time(
    cluster: ClusterSpec,
    src: int,
    dst: int,
    message_bytes: float,
    congestion: float = 1.0,
) -> float:
    """Seconds for one point-to-point send (PP stage boundary traffic).

    Each branch computes only what it returns — this sits on the
    engine's hottest per-op path, so no speculative ``transfer_time``
    call that the non-empty case would throw away.
    """
    if congestion < 1.0:
        raise ValueError("congestion factor must be >= 1.0")
    if message_bytes < 0:
        raise ValueError("message_bytes must be non-negative")
    link = cluster.link_between(src, dst)
    if message_bytes == 0:
        return link.latency
    return link.latency + message_bytes / (link.bandwidth / congestion)


def achieved_all_gather_bandwidth(
    cluster: ClusterSpec,
    ranks: Sequence[int],
    total_bytes: float,
) -> float:
    """Achieved all-gather bus bandwidth in GB/s — the Figure 12 metric.

    NCCL reports ``busbw = (n - 1) / n * S / t`` for all-gather; we follow
    the same convention so the numbers are comparable with the paper.
    """
    n = len(ranks)
    if n == 1:
        return 0.0
    cost = all_gather_time(cluster, ranks, total_bytes)
    return (n - 1) / n * total_bytes / cost.seconds / 1e9


def _validate(ranks: Sequence[int], total_bytes: float, congestion: float) -> None:
    if not ranks:
        raise ValueError("collective needs at least one rank")
    if len(set(ranks)) != len(ranks):
        raise ValueError("duplicate ranks in collective group")
    if total_bytes < 0:
        raise ValueError("total_bytes must be non-negative")
    if congestion < 1.0:
        raise ValueError("congestion factor must be >= 1.0")
