"""Context parallelism: sharding, all-gather CP attention, ring baseline,
performance model, and fleet imbalance analysis."""

from repro.cp.sharding import (
    chunk_bounds,
    chunks_of_rank,
    rank_row_indices,
    rank_workloads,
    workload_imbalance,
    naive_contiguous_workloads,
)
from repro.cp.allgather import (
    CpRankStats,
    CpAttentionOutput,
    allgather_cp_attention,
    local_kv_to_allgathered,
)
from repro.cp.ring import RingStats, ring_cp_attention
from repro.cp.perf import (
    AttentionShape,
    CpPerfResult,
    attention_kernel_time,
    single_gpu_attention_time,
    allgather_cp_perf,
    ring_cp_perf,
    cp_allgather_bandwidth_gbps,
)
from repro.cp.backward import (
    CpBackwardOutput,
    allgather_cp_attention_backward,
    emulated_order_backward,
    rank_partials,
)
from repro.cp.imbalance import (
    FleetImbalanceReport,
    simulate_fleet_imbalance,
)

__all__ = [
    "chunk_bounds",
    "chunks_of_rank",
    "rank_row_indices",
    "rank_workloads",
    "workload_imbalance",
    "naive_contiguous_workloads",
    "CpRankStats",
    "CpAttentionOutput",
    "allgather_cp_attention",
    "local_kv_to_allgathered",
    "RingStats",
    "ring_cp_attention",
    "AttentionShape",
    "CpPerfResult",
    "attention_kernel_time",
    "single_gpu_attention_time",
    "allgather_cp_perf",
    "ring_cp_perf",
    "cp_allgather_bandwidth_gbps",
    "CpBackwardOutput",
    "allgather_cp_attention_backward",
    "emulated_order_backward",
    "rank_partials",
    "FleetImbalanceReport",
    "simulate_fleet_imbalance",
]
