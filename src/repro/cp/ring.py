"""Ring-style context-parallel attention (RingAttention / TransformerEngine
baseline of Sections 4 and 7.2).

Each rank keeps its two query chunks resident while the ``2 * cp`` K/V
chunks circulate around the ring.  Every arrival triggers a *partial*
attention kernel over that chunk's keys, and partial results are merged
with log-sum-exp rescaling — the extra elementwise work (and kernel
fragmentation) that makes ring attention lose to the all-gather variant at
small sequence lengths and large cp (Figure 13).

The numerics here are real: the merge follows the Flash-Attention
rescaling identity, and the test suite checks the merged output matches
the single-device reference to floating-point tolerance (it is *not*
bitwise identical — a different accumulation order, which is exactly the
Section 6.2 distinction between numerical gaps and bugs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.attention.masks import causal_mask, document_mask
from repro.attention.reference import expand_kv
from repro.cp.allgather import CpAttentionOutput, CpRankStats
from repro.cp.sharding import chunk_bounds, rank_row_indices
from repro.data.documents import DocumentBatch


@dataclass(frozen=True)
class RingStats:
    """Extra work counters specific to the ring algorithm."""

    kernels_launched: int      # partial-attention kernels across all ranks
    merge_elements: float      # output elements rescaled during merges
    p2p_messages: int          # chunk hand-offs around the ring


def ring_cp_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    cp: int,
    batch: Optional[DocumentBatch] = None,
) -> Tuple[CpAttentionOutput, RingStats]:
    """Ring attention over ``2 * cp`` circulating K/V chunks.

    Mirrors TE's implementation shape: chunks are assigned head/tail like
    the queries, each rank iterates through all chunks (skipping fully
    masked ones), computing partials and merging with LSE rescaling.
    """
    seq = q.shape[0]
    n_heads = q.shape[1]
    head_dim = q.shape[2]
    mask = causal_mask(seq) if batch is None else document_mask(batch.doc_ids)
    bounds = chunk_bounds(seq, cp)
    kx = expand_kv(k, n_heads)
    vx = expand_kv(v, n_heads)
    scale = 1.0 / np.sqrt(head_dim)

    out = np.zeros_like(q)
    lse_full = np.full((seq, n_heads), -np.inf)
    stats: List[CpRankStats] = []
    kernels = 0
    merge_elements = 0.0

    kv_chunk_bytes = 2 * (seq / (2 * cp)) * k.shape[1] * head_dim * 2  # BF16

    for rank in range(cp):
        rows = rank_row_indices(seq, cp, rank)
        q_r = q[rows]
        running_max = np.full((n_heads, rows.size), -np.inf)
        running_sum = np.zeros((n_heads, rows.size))
        acc = np.zeros((rows.size, n_heads, head_dim))
        area = 0
        for chunk in range(2 * cp):
            start, end = bounds[chunk]
            tile_mask = mask[np.ix_(rows, np.arange(start, end))]
            if not tile_mask.any():
                continue
            kernels += 1
            area += int(np.count_nonzero(tile_mask))
            scores = np.einsum("qhd,khd->hqk", q_r, kx[start:end]) * scale
            scores = np.where(tile_mask[None, :, :], scores, -np.inf)
            tile_max = np.max(scores, axis=-1)
            new_max = np.maximum(running_max, tile_max)
            safe_new = np.where(np.isfinite(new_max), new_max, 0.0)
            correction = np.where(
                np.isfinite(running_max),
                np.exp(running_max - safe_new),
                0.0,
            )
            expd = np.exp(scores - safe_new[:, :, None])
            expd = np.where(tile_mask[None, :, :], expd, 0.0)
            running_sum = running_sum * correction + np.sum(expd, axis=-1)
            acc = acc * correction.T[:, :, None] + np.einsum(
                "hqk,khd->qhd", expd, vx[start:end]
            )
            running_max = new_max
            merge_elements += float(acc.size)

        has_keys = running_sum > 0
        denom = np.where(has_keys, running_sum, 1.0)
        out_r = acc / denom.T[:, :, None]
        out_r = np.where(has_keys.T[:, :, None], out_r, 0.0)
        out[rows] = out_r
        safe_max = np.where(np.isfinite(running_max), running_max, 0.0)
        lse_full[rows] = np.where(
            has_keys, safe_max + np.log(denom), -np.inf
        ).T
        stats.append(
            CpRankStats(
                rank=rank,
                rows=int(rows.size),
                score_area=area,
                # Each rank receives 2*cp - 2 foreign chunk pairs (its own
                # two chunks are local).
                allgather_bytes=kv_chunk_bytes * (2 * cp - 2),
            )
        )

    ring_stats = RingStats(
        kernels_launched=kernels,
        merge_elements=merge_elements,
        p2p_messages=cp * (2 * cp - 2) if cp > 1 else 0,
    )
    return (
        CpAttentionOutput(out=out, lse=lse_full, per_rank=tuple(stats)),
        ring_stats,
    )
