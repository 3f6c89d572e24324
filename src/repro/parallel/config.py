"""Parallelism configuration and training-job hyperparameters.

Terminology follows Table 1 of the paper exactly, extended with the
expert-parallel axis for MoE variants:

========  ==================================================================
``ngpu``  number of GPUs
``seq``   sequence length
``gbs``   global batch size (in sequences)
``bs``    batch size per data-parallel group
``mbs``   micro-batch size in pipeline stage execution
``dp/tp/cp/pp``  GPUs in one data/tensor/context/pipeline parallel group
``ep``    GPUs sharing one expert-parallel group (MoE all-to-all domain)
``ndp``   number of data-parallel groups
``v``     number of virtual stages on one PP rank
``nc``    consecutive micro-batches per virtual stage per round
``nmb``   micro-batches per virtual stage
``tmb``   total micro-batches on one PP rank (= nmb * v)
========  ==================================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigError


class ZeroStage(Enum):
    """FSDP sharding strategy, aligned with DeepSpeed's ZeRO definitions
    (Section 2.1): what is sharded across the data-parallel group."""

    ZERO_1 = 1  # optimizer states only
    ZERO_2 = 2  # optimizer states + gradients
    ZERO_3 = 3  # optimizer states + gradients + parameters


@dataclass(frozen=True)
class ParallelConfig:
    """Sizes of the parallelism dimensions.

    The product ``tp * cp * ep * pp * dp`` must equal the world size; the
    order of dimensions when mapping to physical ranks is fixed to
    [TP, CP, EP, PP, DP] inner -> outer (Section 5.2, extended with the
    expert-parallel axis nested just outside CP so the chatty MoE
    all-to-all stays on as few network hops as the mesh allows).

    ``ep`` defaults to 1, which degenerates bitwise to the paper's 4D
    [TP, CP, PP, DP] mesh: dense models never see the extra axis.
    """

    tp: int = 1
    cp: int = 1
    ep: int = 1
    pp: int = 1
    dp: int = 1
    zero: ZeroStage = ZeroStage.ZERO_1

    def __post_init__(self) -> None:
        for name in ("tp", "cp", "ep", "pp", "dp"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    @property
    def world_size(self) -> int:
        return self.tp * self.cp * self.ep * self.pp * self.dp

    @property
    def model_parallel_size(self) -> int:
        """GPUs holding one model replica's parameters (TP x EP x PP)."""
        return self.tp * self.ep * self.pp

    @property
    def ndp(self) -> int:
        """Number of data-parallel groups (= dp)."""
        return self.dp

    @property
    def grad_shard_degree(self) -> int:
        """Ranks sharing one gradient shard: CP extends the DP group when
        communicating parameters and gradients (Section 4, Integration).
        Expert parameters are disjoint across EP ranks, so EP does not
        widen the shard group."""
        return self.dp * self.cp

    def describe(self) -> str:
        ep = f" ep={self.ep}" if self.ep > 1 else ""
        return (
            f"tp={self.tp} cp={self.cp}{ep} pp={self.pp} dp={self.dp} "
            f"({self.zero.name}, world={self.world_size})"
        )


@dataclass(frozen=True)
class JobConfig:
    """One training phase's hyperparameters.

    Attributes:
        seq: Sequence length in tokens.
        gbs: Global batch size in sequences.
        ngpu: Total GPUs used by the phase.
        mbs: Micro-batch size in sequences (1 throughout Llama 3).
    """

    seq: int
    gbs: int
    ngpu: int
    mbs: int = 1

    def __post_init__(self) -> None:
        for name in ("seq", "gbs", "ngpu", "mbs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    @property
    def tokens_per_step(self) -> int:
        """Global token budget per optimizer step (16M for Llama 3)."""
        return self.seq * self.gbs

    def batch_per_dp_group(self, parallel: ParallelConfig) -> int:
        """``bs``: sequences each data-parallel group processes per step.

        EP ranks carry *distinct* micro-batches — expert parallelism is
        carved out of the data dimension (each EP rank routes its own
        tokens through the all-to-all), so the replica count for batch
        division is ``dp * ep``, not ``dp`` alone.
        """
        if parallel.world_size != self.ngpu:
            raise ValueError(
                f"parallel config covers {parallel.world_size} GPUs, "
                f"job uses {self.ngpu}"
            )
        replicas = parallel.dp * parallel.ep
        if self.gbs % replicas != 0:
            raise ValueError(
                f"gbs={self.gbs} not divisible by dp*ep={replicas}"
            )
        return self.gbs // replicas

    def micro_batches(self, parallel: ParallelConfig) -> int:
        """Total micro-batches per pipeline per step (bs / mbs)."""
        bs = self.batch_per_dp_group(parallel)
        if bs % self.mbs != 0:
            raise ValueError(f"bs={bs} not divisible by mbs={self.mbs}")
        return bs // self.mbs


#: Llama 3 405B short-context phase (Table 2, row 1).
LLAMA3_405B_SHORT_CONTEXT = JobConfig(seq=8192, gbs=2048, ngpu=16384)

#: Llama 3 405B long-context phase (Table 2, row 2).
LLAMA3_405B_LONG_CONTEXT = JobConfig(seq=131072, gbs=128, ngpu=16384)
