"""Fleet-level CP workload imbalance (Section 7.3.2, Figure 14).

Long-context training runs many DP groups, each with its own batch and
therefore its own document-mask geometry.  Every CP collective waits for
the slowest rank of its group, and every training step waits for the
slowest DP group — so per-batch document variation turns into fleet-wide
idle time.  The paper measured, on 8K GPUs:

* the slowest GPU spends **1.44x** the compute time of the fastest, and
  the gap is entirely attention-kernel time;
* exposed CP communication is **7.64%** of elapsed time, of which
  **65.75%** is waiting for the slowest CP rank;
* any overlap-based CP algorithm still waits for the slowest rank, so the
  attainable improvement over all-gather CP is bounded (**2.62%**).

This module reproduces those statistics from synthetic document batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cp.perf import (
    AttentionShape,
    attention_kernel_time,
    _area_of_rows,
    _row_starts,
)
from repro.cp.sharding import rank_row_indices
from repro.data.documents import DocumentBatch, sample_document_lengths
from repro.errors import ConfigError
from repro.hardware.cluster import ClusterSpec
from repro.sim.collectives import all_gather_time


@dataclass(frozen=True)
class FleetImbalanceReport:
    """Aggregated statistics over a simulated fleet of CP groups."""

    attention_seconds: np.ndarray   # (n_gpus,) per-GPU attention kernel time
    compute_seconds: np.ndarray     # (n_gpus,) attention + other compute
    exposed_cp_seconds: np.ndarray  # (n_gpus,) all-gather + straggler wait
    wait_seconds: np.ndarray        # (n_gpus,) straggler wait only
    elapsed_seconds: float          # fleet step-synchronous elapsed time

    @property
    def slowest_over_fastest_compute(self) -> float:
        """Figure 14a's headline ratio (1.44x in the paper)."""
        return float(self.compute_seconds.max() / self.compute_seconds.min())

    @property
    def slowest_over_fastest_attention(self) -> float:
        """Figure 14b: the same ratio on attention kernels alone."""
        return float(
            self.attention_seconds.max() / self.attention_seconds.min()
        )

    @property
    def cp_exposed_fraction(self) -> float:
        """Exposed CP latency share of elapsed time (7.64% in the paper)."""
        return float(self.exposed_cp_seconds.mean() / self.elapsed_seconds)

    @property
    def waiting_fraction_of_exposed(self) -> float:
        """Share of exposed CP time that is straggler waiting (65.75%)."""
        exposed = self.exposed_cp_seconds.mean()
        if exposed == 0:
            return 0.0
        return float(self.wait_seconds.mean() / exposed)

    @property
    def overlap_headroom(self) -> float:
        """Upper bound on end-to-end improvement from perfectly
        overlapping CP communication: only the collective itself can be
        hidden, never the straggler wait (2.62% in the paper)."""
        hideable = self.exposed_cp_seconds.mean() - self.wait_seconds.mean()
        return float(hideable / self.elapsed_seconds)


def simulate_fleet_imbalance(
    cluster: ClusterSpec,
    seq: int,
    cp: int,
    n_dp_groups: int,
    steps: int,
    mean_doc_len: float,
    rng: Optional[np.random.Generator] = None,
) -> FleetImbalanceReport:
    """Simulate ``steps`` training steps of ``n_dp_groups x cp`` GPUs.

    Attention runs at the default :class:`AttentionShape` and is 25% of
    a balanced rank's compute time; the remainder models FFN and
    projections, identical across ranks (Figure 14 shows the compute gap
    is entirely attention).  The corpus is heavy-tailed (log-space
    spread 1.5), and a batch is one giant document with probability 0.2
    — the slowest-rank regime of Section 4.

    Args:
        cluster: Hardware.
        seq: Full sequence length (131072 for Llama 3 long context).
        cp: Context-parallel degree.
        n_dp_groups: DP groups, each drawing independent batches.
        steps: Training steps to accumulate.
        mean_doc_len: Mean document length of the synthetic corpus.
        rng: Random generator (seeded by default for reproducibility).
    """
    if n_dp_groups < 1 or steps < 1:
        raise ConfigError(
            f"need n_dp_groups >= 1 and steps >= 1 (got {n_dp_groups}, "
            f"{steps})")
    if rng is None:
        rng = np.random.default_rng(7)
    shape = AttentionShape()
    attention_share = 0.25

    n_gpus = n_dp_groups * cp
    attention = np.zeros(n_gpus)
    wait = np.zeros(n_gpus)
    exposed = np.zeros(n_gpus)

    #: Backward attention (dQ, dK, dV through the score matrix) costs
    #: ~2.5x the forward flash kernel.
    bwd_factor = 2.5

    # Fixed per-step non-attention compute (GEMMs, norms, projections —
    # forward and backward), sized off the balanced causal workload so
    # ``attention_share`` holds on average.
    balanced = single_rank_balanced_time(cluster, seq, cp, shape)
    balanced_total = balanced * (1.0 + bwd_factor)
    other_per_step = balanced_total * (1.0 - attention_share) / attention_share

    # Exposed CP communication per layer-step: the KV all-gather in
    # forward plus the KV-gradient reduce-scatter in backward (same ring
    # cost, Section 5.2).
    ag = all_gather_time(
        cluster, list(range(cp)),
        2.0 * seq * shape.kv_heads * shape.head_dim * shape.dtype_bytes,
    ).seconds
    comm = 2.0 * ag

    elapsed = 0.0
    for _ in range(steps):
        group_elapsed = np.zeros(n_dp_groups)
        for g in range(n_dp_groups):
            lens = sample_document_lengths(
                seq, mean_doc_len, rng, p_full_sequence=0.2, sigma=1.5)
            batch = DocumentBatch(seq=seq, doc_lens=tuple(lens))
            starts = _row_starts(seq, batch)
            fwd = np.empty(cp)
            for r in range(cp):
                rows = rank_row_indices(seq, cp, r)
                area = _area_of_rows(rows, starts)
                fwd[r] = attention_kernel_time(
                    cluster.gpu, rows.size, area, shape, kv_len=seq
                )
            kernel = fwd * (1.0 + bwd_factor)  # fwd + bwd attention
            slowest = kernel.max()
            gpus = slice(g * cp, (g + 1) * cp)
            attention[gpus] += kernel
            wait[gpus] += slowest - kernel
            exposed[gpus] += (slowest - kernel) + comm
            group_elapsed[g] = slowest + comm + other_per_step
        # The fleet steps synchronously: everyone waits for the slowest
        # DP group (gradient reduce-scatter is a global barrier).
        elapsed += group_elapsed.max()

    compute = attention + steps * other_per_step
    return FleetImbalanceReport(
        attention_seconds=attention,
        compute_seconds=compute,
        exposed_cp_seconds=exposed,
        wait_seconds=wait,
        elapsed_seconds=elapsed,
    )


def single_rank_balanced_time(
    cluster: ClusterSpec, seq: int, cp: int, shape: AttentionShape
) -> float:
    """Attention kernel time of one CP rank under a full causal mask —
    the balanced reference workload."""
    rows = rank_row_indices(seq, cp, 0)
    starts = np.zeros(seq, dtype=np.int64)
    area = _area_of_rows(rows, starts)
    return attention_kernel_time(cluster.gpu, rows.size, area, shape,
                                 kv_len=seq)
