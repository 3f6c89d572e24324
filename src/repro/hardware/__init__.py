"""Hardware specifications: GPUs, links, and cluster topology.

This package models the fixed characteristics of the training hardware the
paper used (H100 GPUs in Grand Teton nodes, NVLink intra-node, RoCE
inter-node) as plain data objects plus a small number of derived quantities
(roofline GEMM time, effective bandwidth at a message size).  The
discrete-event simulator in :mod:`repro.sim` consumes these specs; nothing
here depends on the rest of the library.
"""

from repro.hardware.gpu import (
    GpuSpec,
    H100_HBM3,
    H100_HBM2E,
    H200,
    B200,
    gemm_time,
    gemm_efficiency,
)
from repro.hardware.network import (
    LinkSpec,
    NVLINK_H100,
    ROCE_400G,
    effective_bandwidth,
    transfer_time,
)
from repro.hardware.cluster import ClusterSpec, GRAND_TETON_16K, grand_teton

from repro.hardware.whatif import (
    CapacityPoint,
    JitterReport,
    hbm_capacity_sweep,
    dvfs_jitter_inflation,
    oversubscription_sweep,
    perf_per_watt,
)

__all__ = [
    "CapacityPoint",
    "JitterReport",
    "hbm_capacity_sweep",
    "dvfs_jitter_inflation",
    "oversubscription_sweep",
    "perf_per_watt",
    "GpuSpec",
    "H100_HBM3",
    "H100_HBM2E",
    "H200",
    "B200",
    "gemm_time",
    "gemm_efficiency",
    "LinkSpec",
    "NVLINK_H100",
    "ROCE_400G",
    "effective_bandwidth",
    "transfer_time",
    "ClusterSpec",
    "GRAND_TETON_16K",
    "grand_teton",
]
