"""Device mesh: mapping between global ranks and parallel coordinates.

The order of dimensions is the paper's [TP, CP, PP, DP] (Section 5.2)
extended with expert parallelism nested between CP and PP — inner to
outer it is [TP, CP, EP, PP, DP].  TP ranks are adjacent global ranks
(same NVLink domain when ``tp <= gpus_per_node``), then CP, then EP (the
MoE all-to-all domain, kept inside PP so dispatch/combine rides the
fastest links the mesh allows), then PP, with DP outermost.  A global
rank decomposes as::

    rank = (((dp_idx * pp + pp_idx) * ep + ep_idx) * cp + cp_idx) * tp
           + tp_idx

With ``ep == 1`` (every dense model) this is bitwise the paper's 4D
decomposition ``rank = ((dp_idx * pp + pp_idx) * cp + cp_idx) * tp +
tp_idx``.

The mesh also constructs the process groups that both the simulator and
the trace-analysis tools (Section 6.1's top-down slow-rank search)
operate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.parallel.config import ParallelConfig

#: Dimension names, innermost first.
DIM_ORDER = ("tp", "cp", "ep", "pp", "dp")


@dataclass(frozen=True)
class MeshCoord:
    """Coordinates of one rank.  ``ep`` defaults to 0 so 4D call sites
    (and every dense mesh) construct coordinates unchanged."""

    tp: int
    cp: int
    pp: int
    dp: int
    ep: int = 0

    def replace_dim(self, dim: str, value: int) -> "MeshCoord":
        parts = {"tp": self.tp, "cp": self.cp, "ep": self.ep,
                 "pp": self.pp, "dp": self.dp}
        if dim not in parts:
            raise ValueError(f"unknown dim {dim!r}")
        parts[dim] = value
        return MeshCoord(**parts)


class DeviceMesh:
    """Rank <-> coordinate mapping and process-group construction."""

    def __init__(self, parallel: ParallelConfig) -> None:
        self.parallel = parallel

    @property
    def world_size(self) -> int:
        return self.parallel.world_size

    def _sizes(self) -> Dict[str, int]:
        p = self.parallel
        return {"tp": p.tp, "cp": p.cp, "ep": p.ep, "pp": p.pp, "dp": p.dp}

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range [0, {self.world_size})")

    def _stride(self, dim: str) -> int:
        """Global-rank distance between neighbours along ``dim``: the
        product of the sizes of every dim inside it."""
        sizes = self._sizes()
        if dim not in sizes:
            raise ValueError(f"unknown dim {dim!r}; expected one of {DIM_ORDER}")
        stride = 1
        for inner in DIM_ORDER[:DIM_ORDER.index(dim)]:
            stride *= sizes[inner]
        return stride

    def coord_of(self, rank: int) -> MeshCoord:
        """Coordinates of a global rank."""
        self._check_rank(rank)
        p = self.parallel
        tp_idx = rank % p.tp
        cp_idx = (rank // p.tp) % p.cp
        ep_idx = (rank // (p.tp * p.cp)) % p.ep
        pp_idx = (rank // (p.tp * p.cp * p.ep)) % p.pp
        dp_idx = rank // (p.tp * p.cp * p.ep * p.pp)
        return MeshCoord(tp=tp_idx, cp=cp_idx, ep=ep_idx, pp=pp_idx,
                         dp=dp_idx)

    def rank_of(self, coord: MeshCoord) -> int:
        """Global rank of a coordinate."""
        p = self.parallel
        for dim in DIM_ORDER:
            idx, size = getattr(coord, dim), self._sizes()[dim]
            if not 0 <= idx < size:
                raise ValueError(f"{dim} index {idx} out of range [0, {size})")
        return (
            (((coord.dp * p.pp + coord.pp) * p.ep + coord.ep) * p.cp
             + coord.cp) * p.tp + coord.tp
        )

    def group_of(self, rank: int, dim: str) -> List[int]:
        """Ranks in the same ``dim`` process group as ``rank``.

        E.g. ``group_of(r, "tp")`` is the TP group: all ranks differing
        from ``r`` only in their TP coordinate, in TP-index order.
        ``group_of(r, "ep")`` is the expert-parallel group the MoE
        all-to-all runs over.

        Groups are strided: the members sit ``_stride(dim)`` ranks apart,
        starting from the one whose ``dim`` index is 0, so the list is
        built arithmetically in O(group size).
        """
        self._check_rank(rank)
        stride = self._stride(dim)
        size = self._sizes()[dim]
        base = rank - (rank // stride) % size * stride
        return list(range(base, base + size * stride, stride))

    def all_groups(self, dim: str) -> List[List[int]]:
        """Every ``dim`` process group, each as an ordered rank list.

        Groups come in ascending order of their first member (the order
        a scan over ranks first meets them): within each block of
        ``stride * size`` ranks, one group per offset below the stride.
        """
        stride = self._stride(dim)
        span = stride * self._sizes()[dim]
        return [
            list(range(base, base + span, stride))
            for block in range(0, self.world_size, span)
            for base in range(block, block + stride)
        ]

    def dp_cp_group_of(self, rank: int) -> List[int]:
        """The combined DP x CP group used for parameter all-gather and
        gradient reduce-scatter (Section 4: CP extends DP for parameter
        communication).  The (tp, ep, pp) coordinates stay fixed: each EP
        rank owns disjoint experts, so its gradient shard group spans
        only the DP x CP replicas of the same expert shard.  Ordered DP
        index first, then CP index."""
        self._check_rank(rank)
        p = self.parallel
        dp_stride = self._stride("dp")
        base = rank % dp_stride - (rank // p.tp) % p.cp * p.tp
        return [
            dp_base + cp_offset
            for dp_base in range(base, self.world_size, dp_stride)
            for cp_offset in range(0, p.cp * p.tp, p.tp)
        ]

    def pp_neighbor(self, rank: int, direction: int) -> int:
        """Rank holding the next (+1) or previous (-1) pipeline stage for
        the same (tp, cp, ep, dp) coordinates, wrapping at the ends."""
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        coord = self.coord_of(rank)
        new_pp = (coord.pp + direction) % self.parallel.pp
        return self.rank_of(coord.replace_dim("pp", new_pp))
