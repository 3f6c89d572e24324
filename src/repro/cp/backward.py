"""Backward pass of all-gather CP attention, with the KV-gradient
reduce-scatter (Section 4: "all-gathering KV tensors or reduce-scattering
the gradients of KV tensors").

Forward all-gathers K/V; the mirror in backward is that every rank holds
gradient *contributions* to the full K and V tensors (its query rows
attended keys everywhere), which must be summed across the CP group and
scattered back to each rank's own rows — a reduce-scatter.

Correctness structure mirrors the forward:

* ``dq`` is computed exactly per query row — bitwise equal to the
  single-device backward on those rows;
* ``dk``/``dv`` are cross-rank sums, so they match the single-device
  result to floating-point tolerance, and match the *order-emulated*
  baseline (partials summed in ring order) **bitwise** — the Section 6.2
  discriminator applied to CP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.attention.backward import attention_backward_reference
from repro.attention.masks import causal_mask, document_mask
from repro.cp.sharding import rank_row_indices
from repro.data.documents import DocumentBatch


@dataclass(frozen=True)
class CpBackwardOutput:
    """Distributed attention backward, reassembled."""

    dq: np.ndarray                      # (seq, heads, head_dim)
    dk: np.ndarray                      # (seq, kv_heads, head_dim)
    dv: np.ndarray                      # (seq, kv_heads, head_dim)
    reduce_scatter_bytes_per_rank: float


def _mask(seq: int, batch: Optional[DocumentBatch]) -> np.ndarray:
    if batch is None:
        return causal_mask(seq)
    if batch.seq != seq:
        raise ValueError("batch.seq mismatch")
    return document_mask(batch.doc_ids)


def rank_partials(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    dout: np.ndarray,
    cp: int,
    batch: Optional[DocumentBatch] = None,
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Each rank's local backward: (rows, dq_rows, dk_partial, dv_partial).

    ``dk_partial``/``dv_partial`` span the *full* sequence — the buffers
    that enter the reduce-scatter.
    """
    seq = q.shape[0]
    mask = _mask(seq, batch)
    out = []
    for rank in range(cp):
        rows = rank_row_indices(seq, cp, rank)
        dq_rows, dk_p, dv_p = attention_backward_reference(
            q[rows], k, v, mask[rows, :], dout[rows]
        )
        out.append((rows, dq_rows, dk_p, dv_p))
    return out


def allgather_cp_attention_backward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    dout: np.ndarray,
    cp: int,
    batch: Optional[DocumentBatch] = None,
) -> CpBackwardOutput:
    """Distributed backward: per-rank partials, then ring-order
    reduce-scatter of dk/dv; dq needs no communication."""
    if cp < 1:
        raise ValueError("cp must be >= 1")
    seq = q.shape[0]
    partials = rank_partials(q, k, v, dout, cp, batch)

    dq = np.zeros_like(q)
    for rows, dq_rows, _, _ in partials:
        dq[rows] = dq_rows

    # Ring-order reduction, as a reduce-scatter would sum shards.
    dk = partials[0][2].copy()
    dv = partials[0][3].copy()
    for _, _, dk_p, dv_p in partials[1:]:
        dk += dk_p
        dv += dv_p

    kv_bytes = 2.0 * seq * k.shape[1] * k.shape[2] * 2  # BF16 dK and dV
    return CpBackwardOutput(
        dq=dq, dk=dk, dv=dv,
        reduce_scatter_bytes_per_rank=kv_bytes * (cp - 1) / max(cp, 1),
    )


def emulated_order_backward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    dout: np.ndarray,
    cp: int,
    batch: Optional[DocumentBatch] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sequential baseline forced into CP's accumulation order: compute
    the same per-rank partials and sum them in the same ring order.
    Bitwise equal to :func:`allgather_cp_attention_backward` by
    construction — the reference a real implementation is debugged
    against (Section 6.2)."""
    out = allgather_cp_attention_backward(q, k, v, dout, cp, batch)
    return out.dq, out.dk, out.dv
