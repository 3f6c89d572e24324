"""Context-parallel sequence sharding: the head/tail chunk assignment.

The paper splits the input tokens into ``2 * cp`` chunks and assigns rank
``i`` both chunk ``i`` and chunk ``2 * cp - i - 1`` (Section 4,
Implementation).  Under a causal mask the early chunk is cheap (few allowed
keys) and the late chunk expensive, so the pairing balances the per-rank
score-matrix area exactly — *for the causal mask*.  Document masks break
this balance because their boundaries are input-dependent, which is the
measured imbalance of Figures 11 and 14.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.documents import DocumentBatch
from repro.errors import ConfigError


def chunk_bounds(seq: int, cp: int) -> List[Tuple[int, int]]:
    """[start, end) bounds of the ``2 * cp`` token chunks.

    Chunks are as equal as possible; when ``seq`` is not divisible the
    earlier chunks are one token longer.
    """
    if seq <= 0 or cp <= 0:
        raise ConfigError("seq and cp must be positive")
    n_chunks = 2 * cp
    if seq < n_chunks:
        raise ConfigError(f"seq={seq} shorter than 2*cp={n_chunks}")
    base, rem = divmod(seq, n_chunks)
    bounds = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < rem else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def chunks_of_rank(cp: int, rank: int) -> Tuple[int, int]:
    """Chunk indices assigned to a CP rank: (i, 2*cp - i - 1)."""
    if not 0 <= rank < cp:
        raise ValueError(f"rank {rank} out of range for cp={cp}")
    return rank, 2 * cp - rank - 1


def rank_row_indices(seq: int, cp: int, rank: int) -> np.ndarray:
    """Global query-row indices a CP rank owns (both its chunks, in order)."""
    bounds = chunk_bounds(seq, cp)
    head, tail = chunks_of_rank(cp, rank)
    rows = np.concatenate([
        np.arange(*bounds[head], dtype=np.int64),
        np.arange(*bounds[tail], dtype=np.int64),
    ])
    return rows


def head_tail_partition_problems(seq: int, cp: int) -> List[str]:
    """Structural problems in the head/tail sharding, as messages.

    An empty list certifies the Section 4 assignment: the ``2 * cp``
    chunks tile ``[0, seq)`` exactly, rank ``i`` owns chunks ``i`` and
    ``2*cp - 1 - i``, and every query row belongs to exactly one rank.
    Used by the CP differential oracle (:mod:`repro.verify.oracles`)
    before it compares any attention outputs, so a sharding bug is
    reported as a sharding bug rather than a numerics mismatch.
    """
    problems: List[str] = []
    bounds = chunk_bounds(seq, cp)
    if bounds[0][0] != 0 or bounds[-1][1] != seq:
        problems.append(
            f"chunks do not span [0, {seq}): first={bounds[0]}, "
            f"last={bounds[-1]}")
    for (_, end_a), (start_b, _) in zip(bounds, bounds[1:]):
        if end_a != start_b:
            problems.append(
                f"chunk gap/overlap at boundary {end_a} != {start_b}")
    owners = np.full(seq, -1, dtype=np.int64)
    for rank in range(cp):
        head, tail = chunks_of_rank(cp, rank)
        if tail != 2 * cp - 1 - head:
            problems.append(
                f"rank {rank} pairing ({head}, {tail}) is not head/tail")
        rows = rank_row_indices(seq, cp, rank)
        taken = owners[rows]
        if np.any(taken >= 0):
            first = int(rows[np.argmax(taken >= 0)])
            problems.append(
                f"row {first} owned by both rank {int(owners[first])} "
                f"and rank {rank}")
        owners[rows] = rank
    unowned = np.flatnonzero(owners < 0)
    if unowned.size:
        problems.append(
            f"{unowned.size} rows owned by no rank (first: "
            f"{int(unowned[0])})")
    return problems


def attended_per_row_causal(seq: int) -> np.ndarray:
    """Allowed key count per query row under a full causal mask."""
    return np.arange(1, seq + 1, dtype=np.int64)


def rank_workloads(
    seq: int, cp: int, batch: Optional[DocumentBatch] = None
) -> List[int]:
    """Score-matrix area (allowed (q, k) pairs) each CP rank computes.

    With ``batch`` None a full causal mask is assumed; otherwise the
    batch's document mask.  Causal workloads are balanced to within one
    chunk row by construction; document workloads generally are not.
    """
    if batch is not None and batch.seq != seq:
        raise ValueError("batch.seq != seq")
    per_row = (
        attended_per_row_causal(seq) if batch is None
        else batch.attended_per_row()
    )
    return [
        int(per_row[rank_row_indices(seq, cp, rank)].sum())
        for rank in range(cp)
    ]


def workload_imbalance(workloads: Sequence[int]) -> float:
    """Slowest-over-mean ratio; 1.0 is perfect balance.

    The step time of any CP-synchronous algorithm — all-gather based or
    ring based — is bounded by the slowest rank (Section 7.3.2), so this
    ratio is the attainable-efficiency ceiling for *any* CP attention.
    """
    if not workloads:
        raise ValueError("workloads must be non-empty")
    mean = sum(workloads) / len(workloads)
    if mean == 0:
        return 1.0
    return max(workloads) / mean


def naive_contiguous_workloads(seq: int, cp: int) -> List[int]:
    """Causal workloads of the naive sharding (rank i takes the i-th
    contiguous 1/cp slice) — the strawman the head/tail pairing improves
    on."""
    per_row = attended_per_row_causal(seq)
    base, rem = divmod(seq, cp)
    out = []
    start = 0
    for i in range(cp):
        size = base + (1 if i < rem else 0)
        out.append(int(per_row[start:start + size].sum()))
        start += size
    return out
