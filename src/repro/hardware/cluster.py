"""Cluster topology: nodes of GPUs joined by a hierarchical network.

The Llama 3 cluster is hierarchical (Section 5.2): NVLink inside an 8-GPU
host is the innermost, highest-bandwidth level; RoCE across hosts (and, in a
real datacenter, across pods) forms the slower outer levels.  The parallelism
ordering [TP, CP, PP, DP] exists precisely to put chatty dimensions on inner
levels.  :class:`ClusterSpec` answers the one question cost models need:
*which link class connects a given set of global ranks?*

The node → rack → pod grouping is also the cluster's **failure topology**
(Section 6): a leaf switch or rack PDU takes out every node in its rack at
once, and pod-level events (spine maintenance, power domain trips) take out
every rack in a pod.  :mod:`repro.resilience` consumes ``rack_of``/``pod_of``
to model correlated fail-stop domains and to decide which checkpoint tiers
survive which failures (a node-local checkpoint dies with its node; a
peer-replica placed in the same rack dies with the rack).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigError
from repro.hardware.gpu import GpuSpec, H100_HBM3
from repro.hardware.network import LinkSpec, NVLINK_H100, ROCE_400G


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of identical nodes.

    Attributes:
        gpu: The accelerator installed in every slot.
        gpus_per_node: GPUs sharing the intra-node link (8 for Grand Teton).
        num_nodes: Number of nodes.
        intra_node_link: Link class inside a node (NVLink).
        inter_node_link: Link class between nodes (RoCE).
        oversubscription: Bandwidth-reduction factor applied to inter-node
            traffic that crosses the spine (Section 8.2 recommends
            oversubscribed upper tiers).  1.0 means full bisection.
        storage_bandwidth_per_node: Sustained bytes/s one node can push
            to (or pull from) the checkpoint store.  Defaults to 8 GB/s,
            a distributed-blob-store figure well below the 400G NIC so
            storage — not the network — bounds checkpoint time.
        local_ssd_bandwidth_per_node: Sustained bytes/s one node reads or
            writes against its own NVMe scratch (the node-local
            checkpoint tier).  Defaults to 24 GB/s (a small RAID of
            datacenter NVMe) — faster than the remote store, slower than
            streaming to a peer's HBM over the NIC.
        nodes_per_rack: Nodes sharing a rack (one leaf switch / PDU
            failure domain).
        racks_per_pod: Racks sharing a pod (one spine / power failure
            domain).
    """

    gpu: GpuSpec = H100_HBM3
    gpus_per_node: int = 8
    num_nodes: int = 2048
    intra_node_link: LinkSpec = NVLINK_H100
    inter_node_link: LinkSpec = ROCE_400G
    oversubscription: float = 1.0
    storage_bandwidth_per_node: float = 8e9
    local_ssd_bandwidth_per_node: float = 24e9
    nodes_per_rack: int = 8
    racks_per_pod: int = 32

    def __post_init__(self) -> None:
        if self.gpus_per_node <= 0 or self.num_nodes <= 0:
            raise ConfigError("gpus_per_node and num_nodes must be positive")
        if self.oversubscription < 1.0:
            raise ConfigError("oversubscription factor must be >= 1.0")
        if self.storage_bandwidth_per_node <= 0:
            raise ConfigError("storage_bandwidth_per_node must be positive")
        if self.local_ssd_bandwidth_per_node <= 0:
            raise ConfigError("local_ssd_bandwidth_per_node must be positive")
        if self.nodes_per_rack <= 0 or self.racks_per_pod <= 0:
            raise ConfigError("nodes_per_rack and racks_per_pod must be "
                              "positive")

    @property
    def num_gpus(self) -> int:
        """Total GPUs in the cluster."""
        return self.gpus_per_node * self.num_nodes

    @property
    def num_racks(self) -> int:
        """Racks in the cluster (the last one may be partially filled)."""
        return -(-self.num_nodes // self.nodes_per_rack)

    @property
    def num_pods(self) -> int:
        """Pods in the cluster (the last one may be partially filled)."""
        return -(-self.num_racks // self.racks_per_pod)

    def node_of(self, rank: int) -> int:
        """Node index hosting a global rank."""
        self._check_rank(rank)
        return rank // self.gpus_per_node

    def rack_of(self, node: int) -> int:
        """Rack index hosting a node (the leaf failure domain)."""
        self._check_node(node)
        return node // self.nodes_per_rack

    def pod_of(self, node: int) -> int:
        """Pod index hosting a node (the spine failure domain)."""
        return self.rack_of(node) // self.racks_per_pod

    def nodes_in_rack(self, rack: int) -> int:
        """Nodes actually installed in a rack (the tail rack is ragged)."""
        if not 0 <= rack < self.num_racks:
            raise ValueError(
                f"rack {rack} out of range for cluster of "
                f"{self.num_racks} racks")
        first = rack * self.nodes_per_rack
        return min(self.nodes_per_rack, self.num_nodes - first)

    def local_rank(self, rank: int) -> int:
        """Slot index of a global rank within its node."""
        self._check_rank(rank)
        return rank % self.gpus_per_node

    def link_between(self, rank_a: int, rank_b: int) -> LinkSpec:
        """Link class connecting two global ranks."""
        if self.node_of(rank_a) == self.node_of(rank_b):
            return self.intra_node_link
        return self.inter_node_link

    def group_link(self, ranks: Sequence[int]) -> LinkSpec:
        """Slowest link class inside a communication group.

        Ring-style collectives run at the speed of the slowest hop, so a
        group that spans nodes is charged the inter-node link even when
        some of its members share a host.
        """
        if len(ranks) < 1:
            raise ValueError("group must contain at least one rank")
        nodes = {self.node_of(r) for r in ranks}
        if len(nodes) == 1:
            return self.intra_node_link
        return self.inter_node_link

    def inter_node_bandwidth(self) -> float:
        """Effective per-rank inter-node bandwidth (bytes/s), after
        oversubscription."""
        return self.inter_node_link.bandwidth / self.oversubscription

    def checkpoint_bandwidth_per_node(self) -> float:
        """Bytes/s one node sustains against the checkpoint store.

        Checkpoint traffic rides the scale-out NIC to the store, so it is
        bounded by whichever is slower: the store itself or the
        (oversubscribed) inter-node link.
        """
        return min(self.storage_bandwidth_per_node,
                   self.inter_node_bandwidth())

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_gpus:
            raise ValueError(
                f"rank {rank} out of range for cluster of {self.num_gpus} GPUs"
            )

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(
                f"node {node} out of range for cluster of "
                f"{self.num_nodes} nodes")


def grand_teton(num_gpus: int, gpu: GpuSpec = H100_HBM3) -> ClusterSpec:
    """A Grand-Teton-style cluster with the requested total GPU count."""
    if num_gpus % 8 != 0:
        raise ConfigError("Grand Teton nodes hold 8 GPUs; num_gpus must be a multiple of 8")
    return ClusterSpec(gpu=gpu, gpus_per_node=8, num_nodes=num_gpus // 8)


#: The production Llama 3 405B cluster: 16,384 H100s in 2,048 nodes.
GRAND_TETON_16K = grand_teton(16384)
