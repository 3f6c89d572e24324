"""All-gather-based context-parallel attention (the paper's CP solution).

Each CP rank owns two query chunks (head/tail sharding) and, before
attention, **all-gathers the full K and V tensors** — cheap relative to Q
because GQA makes K/V ``n_heads / n_kv_heads`` times smaller, and the
O(seq) gather is asymptotically dominated by the O(seq^2) attention
(Section 4).

With the full K/V present, each rank computes its query rows against the
complete key sequence under the exact mask.  The production kernel realises
this by padding the Q sequence with leading zeros to the key offset while
keeping the full KV sequence-length information; in this numpy model the
same effect is the per-row mask slice, so document masks that cross chunk
boundaries are handled exactly — the flexibility RingAttention's tile
bookkeeping struggles with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.attention.masks import causal_mask, document_mask
from repro.attention.reference import attention_reference
from repro.cp.sharding import rank_row_indices
from repro.data.documents import DocumentBatch


@dataclass(frozen=True)
class CpRankStats:
    """Per-rank work and communication accounting."""

    rank: int
    rows: int
    score_area: int       # allowed (q, k) pairs this rank computed
    allgather_bytes: float  # K+V bytes this rank received


@dataclass(frozen=True)
class CpAttentionOutput:
    """Distributed attention result, reassembled."""

    out: np.ndarray                # (seq, heads, head_dim), full sequence
    lse: np.ndarray                # (seq, heads)
    per_rank: Tuple[CpRankStats, ...]


def _full_mask(seq: int, batch: Optional[DocumentBatch]) -> np.ndarray:
    if batch is None:
        return causal_mask(seq)
    if batch.seq != seq:
        raise ValueError("batch.seq mismatch")
    return document_mask(batch.doc_ids)


def allgather_cp_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    cp: int,
    batch: Optional[DocumentBatch] = None,
) -> CpAttentionOutput:
    """Run attention as ``cp`` ranks would, and reassemble the output.

    Args:
        q: (seq, n_heads, head_dim) queries for the full sequence.
        k: (seq, n_kv_heads, head_dim) keys.
        v: (seq, n_kv_heads, head_dim) values.
        cp: Context-parallel degree.
        batch: Document structure; None means a full causal mask.

    The result is **bitwise identical** to single-device attention on the
    same rows: each rank computes exact softmax over its full allowed key
    range (no partial-result merging, unlike ring attention).
    """
    seq = q.shape[0]
    if k.shape[0] != seq or v.shape[0] != seq:
        raise ValueError("q, k, v must cover the same sequence")
    mask = _full_mask(seq, batch)

    out = np.zeros_like(q)
    lse = np.full((seq, q.shape[1]), -np.inf)
    stats: List[CpRankStats] = []
    kv_bytes_total = 2 * seq * k.shape[1] * k.shape[2] * 2  # BF16 K and V
    for rank in range(cp):
        rows = rank_row_indices(seq, cp, rank)
        rank_mask = mask[rows, :]
        result = attention_reference(q[rows], k, v, rank_mask)
        out[rows] = result.out
        lse[rows] = result.lse
        stats.append(
            CpRankStats(
                rank=rank,
                rows=int(rows.size),
                score_area=int(np.count_nonzero(rank_mask)),
                allgather_bytes=kv_bytes_total * (cp - 1) / cp,
            )
        )
    return CpAttentionOutput(out=out, lse=lse, per_rank=tuple(stats))


def local_kv_to_allgathered(
    kv_shards: List[np.ndarray], seq: int, cp: int
) -> np.ndarray:
    """Reassemble the full K (or V) tensor from per-rank head/tail shards —
    the data movement the all-gather performs.  ``kv_shards[r]`` holds rank
    r's rows in its local order (head chunk then tail chunk)."""
    if len(kv_shards) != cp:
        raise ValueError(f"expected {cp} shards, got {len(kv_shards)}")
    head_dim_shape = kv_shards[0].shape[1:]
    full = np.zeros((seq, *head_dim_shape), dtype=kv_shards[0].dtype)
    for rank, shard in enumerate(kv_shards):
        rows = rank_row_indices(seq, cp, rank)
        if shard.shape[0] != rows.size:
            raise ValueError(f"rank {rank} shard has wrong row count")
        full[rows] = shard
    return full
