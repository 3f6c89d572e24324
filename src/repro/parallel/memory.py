"""Closed-form per-rank peak memory model under 4D parallelism.

This is the estimator the Section 5 planner uses to decide whether a
candidate (tp, pp) fits in HBM, and the analytical counterpart of the exact
event-driven accounting in :mod:`repro.pp.grad_memory` (tests cross-check
the two).

Accounting per PP rank:

* **Parameters** — BF16.  Resident unsharded under ZeRO-1/2; under ZeRO-3
  the resident copy is sharded over the DP x CP group and one virtual
  stage's worth is transiently gathered.
* **Gradients** — FP32 (the paper accumulates PP micro-batch gradients in
  FP32, Section 6.2).  Unsharded under ZeRO-1; under ZeRO-2/3 the resident
  buffer is sharded and one virtual stage is transiently unsharded before
  its reduce-scatter.
* **Optimizer state** — FP32 master + two Adam moments, always sharded over
  DP x CP (all ZeRO stages shard optimizer state).
* **Activations** — saved tensors of every in-flight micro-batch, where
  the in-flight count comes from the schedule (warm-up depth for 1F1B,
  all micro-batches for all-forward-all-backward).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.config import TextModelConfig
from repro.model.flops import expert_params, layer_params
from repro.model.memory import (
    BF16_BYTES,
    FP32_BYTES,
    GIB,
    activation_bytes_per_layer,
    embedding_bytes,
    optimizer_state_bytes_per_param,
    output_head_bytes,
)
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage


@dataclass(frozen=True)
class RankMemory:
    """Peak memory breakdown for one GPU rank, in bytes."""

    params: float
    grads: float
    optimizer: float
    activations: float
    embedding_and_head: float

    @property
    def total(self) -> float:
        return (
            self.params + self.grads + self.optimizer
            + self.activations + self.embedding_and_head
        )

    @property
    def total_gb(self) -> float:
        return self.total / GIB


def estimate_rank_memory(
    model: TextModelConfig,
    parallel: ParallelConfig,
    job: JobConfig,
    layers_on_rank: int,
    in_flight_microbatches: float,
    virtual_stages: int = 1,
    has_embedding: bool = False,
    has_output_head: bool = False,
) -> RankMemory:
    """Peak memory for one PP rank.

    Args:
        model: Architecture.
        parallel: 4D parallel sizes and ZeRO stage.
        job: Phase hyperparameters (seq, mbs).
        layers_on_rank: Transformer layers hosted by this PP rank.
        in_flight_microbatches: Peak number of *virtual-stage executions*
            whose forward activations are alive simultaneously (the
            warm-up depth for 1F1B, all ``nmb * v`` for AFAB); each such
            execution holds ``layers_on_rank / virtual_stages`` layers of
            activations.
        virtual_stages: ``v``; sizes the transient unsharded-gradient /
            gathered-parameter windows under ZeRO-2/3.
        has_embedding: Whether this rank hosts the input embedding.
        has_output_head: Whether this rank hosts the output projection.
    """
    if layers_on_rank < 0 or in_flight_microbatches < 0:
        raise ValueError("layers_on_rank and in_flight_microbatches must be >= 0")
    if virtual_stages < 1:
        raise ValueError("virtual_stages must be >= 1")

    tp, cp = parallel.tp, parallel.cp
    shard = parallel.grad_shard_degree  # dp * cp
    # EP shards the expert weights (each EP rank owns n_experts / ep of
    # them); the dense remainder of the layer is replicated across EP and
    # sharded by TP like any other weight.
    experts = expert_params(model)
    per_layer_params = (
        layer_params(model) - experts + experts / parallel.ep
    ) / tp
    rank_params = layers_on_rank * per_layer_params
    stage_params = rank_params / virtual_stages

    # Parameters (BF16).
    if parallel.zero is ZeroStage.ZERO_3:
        params = BF16_BYTES * (rank_params / shard + stage_params)
    else:
        params = BF16_BYTES * rank_params

    # Gradients (FP32 accumulation buffers).
    if parallel.zero is ZeroStage.ZERO_1:
        grads = FP32_BYTES * rank_params
    else:
        grads = FP32_BYTES * (rank_params / shard + stage_params)

    # Optimizer state: always sharded over DP x CP.
    optimizer = optimizer_state_bytes_per_param() * rank_params / shard

    # Activations.
    act = activation_bytes_per_layer(
        model, seq=job.seq, mbs=job.mbs, tp=tp, cp=cp
    )
    layers_per_stage = layers_on_rank / virtual_stages
    activations = in_flight_microbatches * layers_per_stage * act.total

    # Embedding / output head (BF16 weights + FP32 grads, TP-sharded).
    extra = 0.0
    if has_embedding:
        extra += embedding_bytes(model, tp) * (1 + FP32_BYTES / BF16_BYTES)
    if has_output_head:
        extra += output_head_bytes(model, tp) * (1 + FP32_BYTES / BF16_BYTES)

    return RankMemory(
        params=params,
        grads=grads,
        optimizer=optimizer,
        activations=activations,
        embedding_and_head=extra,
    )
