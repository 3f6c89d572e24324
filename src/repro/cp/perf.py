"""Analytical performance model for context-parallel attention.

Reproduces the quantities plotted in Section 7.2:

* **Relative HFU** (Figures 11 and 13): hardware FLOPs utilisation of a
  distributed attention, normalised to Flash-Attention v2 on one GPU with
  the same mask — ``t_single / (cp * t_cp)``.
* **Achieved all-gather bandwidth** (Figure 12) via the collectives model.
* **Attention latency speed-up** vs one GPU (the 3.89x on 4 GPUs claim).

The kernel-time model is a roofline with a tile-fill efficiency term: a
flash kernel whose average contiguous key span is ``L`` runs at
``eff_max * L / (L + l_half)`` of peak, which is what punishes ring
attention's ``seq / (2 * cp)``-token chunks at small sequence lengths
(the Figure 13 crossover) while leaving long-sequence behaviour
compute-bound for everyone.

Areas (allowed (q, k) pairs) are computed exactly from the document
structure in O(seq) without materialising masks, so the model runs at the
paper's full 131K sequence length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.data.documents import DocumentBatch
from repro.hardware.cluster import ClusterSpec
from repro.hardware.gpu import GpuSpec
from repro.sim.collectives import (
    achieved_all_gather_bandwidth,
    all_gather_time,
)
from repro.cp.sharding import chunk_bounds, rank_row_indices

#: Peak fraction a well-fed flash kernel sustains on H100.
EFF_MAX = 0.70
#: Key-span at which tile-fill efficiency halves.  Calibrated so the
#: Figure 13 crossover lands where the paper reports it (CP beats ring by
#: up to ~13.5% relative HFU at cp=4, seq 4K-8K).
L_HALF = 192.0
#: Bytes of extra memory traffic per output element per ring merge step.
#: TE fuses the rescale into the kernel epilogue, so only the accumulator
#: rewrite remains.
MERGE_BYTES_PER_ELEMENT = 1
#: Per-tile launch overhead of ring attention's partial kernels, in
#: microseconds — lower than a cold kernel launch (persistent kernels)
#: but paid 2*cp times per layer instead of once.
RING_KERNEL_LAUNCH_US = 2.5


@dataclass(frozen=True)
class AttentionShape:
    """Per-rank attention problem dimensions (post-TP sharding)."""

    heads: int = 16        # 128 query heads / tp=8
    kv_heads: int = 1      # 8 KV heads / tp=8
    head_dim: int = 128
    dtype_bytes: int = 2


def _row_starts(seq: int, batch: Optional[DocumentBatch]) -> np.ndarray:
    """Per-row first allowed key position."""
    if batch is None:
        return np.zeros(seq, dtype=np.int64)
    ids = batch.doc_ids
    starts = np.zeros(seq, dtype=np.int64)
    boundary = np.flatnonzero(np.diff(ids)) + 1
    starts[boundary] = boundary
    return np.maximum.accumulate(starts)


def _area_of_rows(rows: np.ndarray, starts: np.ndarray) -> int:
    return int((rows + 1 - starts[rows]).sum())


def _chunk_area(
    rows: np.ndarray, starts: np.ndarray, lo: int, hi: int
) -> int:
    """Allowed pairs between query ``rows`` and key range [lo, hi)."""
    upper = np.minimum(rows + 1, hi)
    lower = np.maximum(starts[rows], lo)
    return int(np.maximum(upper - lower, 0).sum())


def attention_kernel_time(
    gpu: GpuSpec,
    rows: int,
    area: int,
    shape: AttentionShape,
    kv_len: int,
    launch_us: Optional[float] = None,
) -> float:
    """Roofline time for one fused flash kernel.

    Args:
        gpu: Accelerator spec.
        rows: Query rows processed.
        area: Allowed (q, k) pairs.
        shape: Head configuration.
        kv_len: Keys resident for this kernel (memory-traffic term).
        launch_us: Launch overhead override (ring partial kernels use
            :data:`RING_KERNEL_LAUNCH_US`).
    """
    launch = (gpu.kernel_launch_us if launch_us is None else launch_us) * 1e-6
    if rows <= 0 or area <= 0:
        return launch
    flops = 4.0 * area * shape.heads * shape.head_dim
    avg_span = area / rows
    eff = EFF_MAX * avg_span / (avg_span + L_HALF)
    compute = flops / (gpu.peak_flops * eff)
    bytes_moved = shape.dtype_bytes * (
        2 * rows * shape.heads * shape.head_dim            # Q and O
        + 2 * kv_len * shape.kv_heads * shape.head_dim     # K and V
    )
    memory = bytes_moved / gpu.hbm_bandwidth
    return max(compute, memory) + launch


def single_gpu_attention_time(
    gpu: GpuSpec,
    seq: int,
    shape: AttentionShape = AttentionShape(),
    batch: Optional[DocumentBatch] = None,
) -> float:
    """Flash-Attention v2 on one GPU — the Figure 11/13 baseline."""
    starts = _row_starts(seq, batch)
    rows = np.arange(seq, dtype=np.int64)
    area = _area_of_rows(rows, starts)
    return attention_kernel_time(gpu, seq, area, shape, kv_len=seq)


@dataclass(frozen=True)
class CpPerfResult:
    """Timing decomposition of one distributed attention call."""

    cp: int
    compute_seconds: float    # slowest rank's kernel time
    comm_seconds: float       # exposed communication
    merge_seconds: float      # ring-only LSE merge cost
    single_gpu_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.comm_seconds + self.merge_seconds

    @property
    def relative_hfu(self) -> float:
        """HFU normalised to single-GPU flash: t1 / (cp * t_cp)."""
        return self.single_gpu_seconds / (self.cp * self.total_seconds)

    @property
    def speedup(self) -> float:
        """Attention latency reduction vs one GPU (3.89x claim at cp=4)."""
        return self.single_gpu_seconds / self.total_seconds


def _kv_total_bytes(seq: int, shape: AttentionShape) -> float:
    return 2.0 * seq * shape.kv_heads * shape.head_dim * shape.dtype_bytes


def allgather_cp_perf(
    cluster: ClusterSpec,
    seq: int,
    cp: int,
    shape: AttentionShape = AttentionShape(),
    batch: Optional[DocumentBatch] = None,
) -> CpPerfResult:
    """All-gather CP attention: exposed KV all-gather, then one fused
    kernel per rank over the full key range; step time is gated by the
    slowest rank (document masks make ranks unequal)."""
    if cp < 1:
        raise ValueError("cp must be >= 1")
    single = single_gpu_attention_time(cluster.gpu, seq, shape, batch)
    if cp == 1:
        return CpPerfResult(
            cp=1, compute_seconds=single, comm_seconds=0.0,
            merge_seconds=0.0, single_gpu_seconds=single,
        )
    starts = _row_starts(seq, batch)
    kernel_times = []
    for rank in range(cp):
        rows = rank_row_indices(seq, cp, rank)
        area = _area_of_rows(rows, starts)
        kernel_times.append(
            attention_kernel_time(cluster.gpu, rows.size, area, shape,
                                  kv_len=seq)
        )
    ag = all_gather_time(
        cluster, list(range(cp)), _kv_total_bytes(seq, shape)
    )
    return CpPerfResult(
        cp=cp,
        compute_seconds=max(kernel_times),
        comm_seconds=ag.seconds,
        merge_seconds=0.0,
        single_gpu_seconds=single,
    )


def ring_cp_perf(
    cluster: ClusterSpec,
    seq: int,
    cp: int,
    shape: AttentionShape = AttentionShape(),
) -> CpPerfResult:
    """Ring (TE-style) CP attention under a causal mask: 2*cp partial
    kernels per rank with P2P overlap and LSE merging.

    Per ring step the rank pays ``max(kernel_i, p2p)`` (communication is
    overlapped with computation) plus the merge's memory-bound rescale;
    small chunks mean fragmented kernels with poor tile fill — the
    Figure 13 effect.
    """
    if cp < 1:
        raise ValueError("cp must be >= 1")
    single = single_gpu_attention_time(cluster.gpu, seq, shape)
    if cp == 1:
        return CpPerfResult(
            cp=1, compute_seconds=single, comm_seconds=0.0,
            merge_seconds=0.0, single_gpu_seconds=single,
        )
    starts = _row_starts(seq, None)
    bounds = chunk_bounds(seq, cp)
    link = cluster.group_link(list(range(cp)))
    chunk_bytes = _kv_total_bytes(seq, shape) / (2 * cp)
    from repro.hardware.network import transfer_time

    p2p = transfer_time(link, chunk_bytes)
    gpu = cluster.gpu

    per_rank_compute: List[float] = []
    per_rank_comm: List[float] = []
    per_rank_merge: List[float] = []
    for rank in range(cp):
        rows = rank_row_indices(seq, cp, rank)
        compute = 0.0
        exposed_comm = 0.0
        merges = 0
        for ci, (lo, hi) in enumerate(bounds):
            area = _chunk_area(rows, starts, lo, hi)
            if area == 0:
                # The chunk still circulates; its P2P may be exposed.
                exposed_comm += max(p2p - 0.0, 0.0) if ci > 0 else 0.0
                continue
            kernel = attention_kernel_time(
                gpu, rows.size, area, shape, kv_len=hi - lo,
                launch_us=RING_KERNEL_LAUNCH_US,
            )
            if ci == 0:
                compute += kernel
            else:
                # Overlap: the step costs max(kernel, p2p).
                compute += kernel
                exposed_comm += max(p2p - kernel, 0.0)
            merges += 1
        merge_bytes = (
            merges * rows.size * shape.heads * shape.head_dim
            * MERGE_BYTES_PER_ELEMENT
        )
        per_rank_compute.append(compute)
        per_rank_comm.append(exposed_comm)
        per_rank_merge.append(merge_bytes / gpu.hbm_bandwidth)

    worst = int(np.argmax(
        np.asarray(per_rank_compute) + np.asarray(per_rank_comm)
        + np.asarray(per_rank_merge)
    ))
    return CpPerfResult(
        cp=cp,
        compute_seconds=per_rank_compute[worst],
        comm_seconds=per_rank_comm[worst],
        merge_seconds=per_rank_merge[worst],
        single_gpu_seconds=single,
    )


def cp_allgather_bandwidth_gbps(
    cluster: ClusterSpec, seq: int, cp: int,
    shape: AttentionShape = AttentionShape(),
) -> float:
    """Achieved CP all-gather bus bandwidth (Figure 12).  Identical for
    causal and document masks — the payload does not depend on the mask,
    which is how the paper isolates the HFU gap to compute imbalance."""
    return achieved_all_gather_bandwidth(
        cluster, list(range(cp)), _kv_total_bytes(seq, shape)
    )
