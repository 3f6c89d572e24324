"""Per-operation cost model for one GPU rank under 5D parallelism.

Times one pipeline-stage forward/backward for one micro-batch, composing:

* TP-sharded GEMMs (QKV/out projections, SwiGLU FFN) via the roofline GEMM
  model — column-parallel layers shard the output dim, row-parallel layers
  the inner dim, as in Megatron-LM;
* for MoE models, the per-expert FFN GEMMs of this rank's
  ``n_experts / ep`` experts (each sized by the capacity-clipped balanced
  token load) plus the router projection, and the dispatch/combine
  all-to-all over the EP group — exposed, like the TP collectives;
* the flash-attention kernel (heads sharded by TP, sequence sharded by CP,
  full key range after the CP all-gather);
* TP collectives — with sequence parallelism, an all-gather and a
  reduce-scatter around each of the attention and FFN blocks, *fully
  exposed* (Section 5.2);
* CP collectives — the KV all-gather in forward and KV-gradient
  reduce-scatter in backward, once per layer, exposed;
* embedding and vocabulary-head work on the first/last stages — the
  128K-vocab modules that motivate balanced PP (Section 7.1.2).

Backward is 2x the forward GEMM/attention compute (weight + input grads),
plus one extra forward when activation recomputation is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List

from repro.cp.perf import AttentionShape, attention_kernel_time
from repro.hardware.cluster import ClusterSpec
from repro.hardware.gpu import gemm_time
from repro.model.config import TextModelConfig
from repro.parallel.config import JobConfig, ParallelConfig
from repro.parallel.mesh import DeviceMesh
from repro.pp.layout import StageAssignment
from repro.sim.collectives import (
    all_gather_time,
    all_to_all_time,
    p2p_time,
    reduce_scatter_time,
)
from repro.train.moe import dispatch_bytes_per_rank


@dataclass(frozen=True)
class StageCost:
    """Timing of one stage's work for one micro-batch.

    ``ep_comm_seconds`` (the MoE dispatch + combine all-to-all) defaults
    to 0.0 so dense call sites — including positional constructions —
    are untouched.
    """

    compute_seconds: float
    tp_comm_seconds: float
    cp_comm_seconds: float
    ep_comm_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (self.compute_seconds + self.tp_comm_seconds
                + self.cp_comm_seconds + self.ep_comm_seconds)


def split_backward_cost(backward: StageCost) -> "tuple[StageCost, StageCost]":
    """Split a monolithic backward into (input-grad, weight-grad) halves.

    Zero-bubble schedules run dgrad (BI) on the critical path and defer
    wgrad (BW) into bubbles.  The split is exact by construction: the
    wgrad half takes ``compute / 2`` and the dgrad half the remainder
    (``c - c/2 == c/2`` bitwise in binary floating point, so
    BI + BW == B to the last ulp), and all TP/CP/EP communication rides
    on the dgrad half, whose output feeds the upstream P2P send.
    """
    wgrad_compute = backward.compute_seconds / 2.0
    bi = StageCost(
        compute_seconds=backward.compute_seconds - wgrad_compute,
        tp_comm_seconds=backward.tp_comm_seconds,
        cp_comm_seconds=backward.cp_comm_seconds,
        ep_comm_seconds=backward.ep_comm_seconds,
    )
    bw = StageCost(
        compute_seconds=wgrad_compute,
        tp_comm_seconds=0.0,
        cp_comm_seconds=0.0,
    )
    return bi, bw


class CostModel:
    """Times pipeline ops for a (model, parallel, job, cluster) tuple."""

    def __init__(
        self,
        model: TextModelConfig,
        parallel: ParallelConfig,
        job: JobConfig,
        cluster: ClusterSpec,
        recompute: bool = False,
        congestion: float = 1.0,
        attention_straggler: float = 1.0,
        mask_fraction: float = 0.5,
    ) -> None:
        if parallel.tp > cluster.gpus_per_node:
            raise ValueError("tp beyond the node size puts TP on the slow fabric")
        if attention_straggler < 1.0:
            raise ValueError("attention_straggler must be >= 1.0")
        if parallel.ep > 1 and not model.is_moe:
            raise ValueError("ep > 1 needs an MoE model (n_experts > 0)")
        if model.is_moe and model.n_experts % parallel.ep != 0:
            raise ValueError(
                f"ep={parallel.ep} must divide n_experts={model.n_experts}")
        self.model = model
        self.parallel = parallel
        self.job = job
        self.cluster = cluster
        self.recompute = recompute
        self.congestion = congestion
        #: Slowest-over-mean attention-time ratio across the CP/DP fleet;
        #: document masks make this > 1 (1.44x measured in Section 7.3.2),
        #: and synchronous training runs at the slowest rank's pace.
        self.attention_straggler = attention_straggler
        if not 0.0 < mask_fraction <= 1.0:
            raise ValueError("mask_fraction must be in (0, 1]")
        #: Attention mask density: 0.5 for causal, less for document masks.
        self.mask_fraction = mask_fraction
        #: Tokens processed per rank per micro-batch (CP shards the sequence).
        self.tokens = job.seq * job.mbs // parallel.cp
        self._tp_group = list(range(parallel.tp))
        # A representative CP group: ranks at stride tp.
        self._cp_group = [i * parallel.tp for i in range(parallel.cp)]
        # A representative EP group: ranks at stride tp * cp (the EP axis
        # sits between CP and PP in the [TP, CP, EP, PP, DP] order).
        self._ep_group = [
            i * parallel.tp * parallel.cp for i in range(parallel.ep)
        ]
        # Memo table for the per-(op, mesh) kernels below.  Every public
        # cost method is a pure function of the constructor arguments, and
        # the step-graph lowering calls the layer/stage kernels once per
        # (stage, microbatch, virtual stage) — thousands of identical
        # evaluations on paper-scale schedules — so each distinct
        # (method, args) pair is priced exactly once per model instance.
        self._memo: dict = {}

    def _memoized(self, key, compute):
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = compute()
        return out

    # ------------------------------------------------------------------
    # Layer-level pieces
    # ------------------------------------------------------------------

    def layer_gemm_seconds(self) -> float:
        """TP-sharded GEMM time of one transformer layer's forward."""
        return self._memoized("layer_gemm", self._layer_gemm_seconds)

    def _layer_gemm_seconds(self) -> float:
        m = self.tokens
        d, f = self.model.dim, self.model.ffn_hidden
        tp = self.parallel.tp
        gpu = self.cluster.gpu
        qkv = gemm_time(gpu, m, (d + 2 * self.model.kv_dim) // tp, d)
        out = gemm_time(gpu, m, d, d // tp)
        if self.model.is_moe:
            ffn = self._moe_expert_ffn_seconds()
        else:
            ffn = 2 * gemm_time(gpu, m, f // tp, d) \
                + gemm_time(gpu, m, d, f // tp)
        return qkv + out + ffn

    def _moe_expert_ffn_seconds(self) -> float:
        """Expert-FFN time for this rank's ``n_experts / ep`` experts.

        Each expert runs the same three TP-sharded SwiGLU GEMMs as a
        dense FFN, but over its own token buffer: after the dispatch
        all-to-all, a local expert holds the capacity-clipped balanced
        share of tokens from *every* EP peer —
        ``tokens * ep * top_k * capacity_factor / n_experts``.  Per-rank
        expert FLOPs are thus EP-invariant (``experts_per_rank`` shrinks
        as ``m_expert`` grows), but the GEMM *shape* is not: low EP means
        many small GEMMs paying the launch overhead and the low-``m``
        efficiency falloff repeatedly, high EP means few fat ones — the
        reason spreading experts across EP ranks beats slicing them
        thinner with TP once the expert count grows (the EP-vs-TP flip
        the planner sweep pins).  The router is one dense
        ``tokens x n_experts`` GEMM on the rank's own tokens.
        """
        model, p = self.model, self.parallel
        d, f = model.dim, model.ffn_hidden
        gpu = self.cluster.gpu
        experts_per_rank = model.n_experts // p.ep
        m_expert = max(
            int(self.tokens * p.ep * model.top_k * model.capacity_factor
                / model.n_experts),
            1,
        )
        per_expert = (
            2 * gemm_time(gpu, m_expert, f // p.tp, d)
            + gemm_time(gpu, m_expert, d, f // p.tp)
        )
        router = gemm_time(gpu, self.tokens, model.n_experts, d)
        return experts_per_rank * per_expert + router

    def layer_elementwise_seconds(self) -> float:
        """Memory-bound elementwise work per layer: RMSNorms, RoPE,
        residual adds, SiLU and the gated product — roughly 20 full passes
        over the token activations plus 4 over the FFN hidden.  These ops
        never reach tensor cores, so they cap sustained TFLOPs well below
        GEMM peak (the Section 8.1 "lightweight kernels" concern)."""
        return self._memoized("layer_elementwise",
                              self._layer_elementwise_seconds)

    def _layer_elementwise_seconds(self) -> float:
        d = self.model.dim
        f = self.model.ffn_hidden
        tp = self.parallel.tp
        act_passes = 20.0 * self.tokens * d / tp
        ffn_passes = 4.0 * self.tokens * f / tp
        bytes_moved = 2.0 * (act_passes + ffn_passes)
        launches = 10 * self.cluster.gpu.kernel_launch_us * 1e-6
        return bytes_moved / self.cluster.gpu.hbm_bandwidth + launches

    def attention_shape(self) -> AttentionShape:
        tp = self.parallel.tp
        return AttentionShape(
            heads=max(self.model.n_heads // tp, 1),
            kv_heads=max(self.model.n_kv_heads // tp, 1),
            head_dim=self.model.head_dim,
        )

    def layer_attention_seconds(self) -> float:
        """Flash-attention kernel time for one layer, one micro-batch.

        The rank computes its ``tokens`` query rows against the full
        ``seq``-length key range (post CP all-gather), at the causal (or
        document-averaged) mask density.
        """
        return self._memoized("layer_attention",
                              self._layer_attention_seconds)

    def _layer_attention_seconds(self) -> float:
        rows = self.tokens * 1  # per micro-batch
        full_seq = self.job.seq * self.job.mbs
        area = int(self.mask_fraction * rows * full_seq)
        base = attention_kernel_time(
            self.cluster.gpu, rows, max(area, 1), self.attention_shape(),
            kv_len=full_seq,
        )
        return base * self.attention_straggler

    def layer_tp_comm_seconds(self) -> float:
        """Per-layer exposed TP communication: AG + RS around attention and
        the same around the FFN (4 collectives, Section 5.2)."""
        return self._memoized("layer_tp_comm", self._layer_tp_comm_seconds)

    def _layer_tp_comm_seconds(self) -> float:
        if self.parallel.tp == 1:
            return 0.0
        act_bytes = 2.0 * self.tokens * self.model.dim
        ag = all_gather_time(self.cluster, self._tp_group, act_bytes,
                             self.congestion)
        rs = reduce_scatter_time(self.cluster, self._tp_group, act_bytes,
                                 self.congestion)
        return 2 * (ag.seconds + rs.seconds)

    def layer_ep_comm_seconds(self) -> float:
        """Per-layer exposed EP communication: the token dispatch
        all-to-all before the expert FFNs plus the combine all-to-all
        after them — zero for dense models or ``ep == 1`` (experts
        rank-local, no token exchange)."""
        return self._memoized("layer_ep_comm", self._layer_ep_comm_seconds)

    def _layer_ep_comm_seconds(self) -> float:
        if not self.model.is_moe or self.parallel.ep == 1:
            return 0.0
        payload = dispatch_bytes_per_rank(
            self.model, self.tokens, self.parallel.tp
        )
        cost = all_to_all_time(
            self.cluster, self._ep_group, payload, self.congestion
        )
        return 2 * cost.seconds  # dispatch + combine

    def layer_cp_comm_seconds(self) -> float:
        """Per-layer exposed CP communication: the KV all-gather (forward)
        or KV-grad reduce-scatter (backward) — same ring cost."""
        return self._memoized("layer_cp_comm", self._layer_cp_comm_seconds)

    def _layer_cp_comm_seconds(self) -> float:
        if self.parallel.cp == 1:
            return 0.0
        kv_bytes = (
            2.0 * self.job.seq * self.job.mbs
            * max(self.model.kv_dim // self.parallel.tp, self.model.head_dim)
            * 2
        )
        return all_gather_time(
            self.cluster, self._cp_group, kv_bytes, self.congestion
        ).seconds

    # ------------------------------------------------------------------
    # Stage-level costs
    # ------------------------------------------------------------------

    def _embedding_seconds(self) -> float:
        """Embedding lookup: memory-bound gather of token vectors."""
        bytes_moved = 2.0 * self.tokens * self.model.dim * 2
        return bytes_moved / self.cluster.gpu.hbm_bandwidth \
            + self.cluster.gpu.kernel_launch_us * 1e-6

    def _head_seconds(self) -> float:
        """Vocabulary projection GEMM (column-parallel over TP)."""
        return gemm_time(
            self.cluster.gpu, self.tokens,
            self.model.vocab_size // self.parallel.tp, self.model.dim,
        )

    def forward_seconds(self, stage: StageAssignment) -> StageCost:
        """Forward of one stage for one micro-batch."""
        return self._memoized(("fwd", stage),
                              lambda: self._forward_seconds(stage))

    def _forward_seconds(self, stage: StageAssignment) -> StageCost:
        n = stage.n_layers
        compute = n * (self.layer_gemm_seconds()
                       + self.layer_attention_seconds()
                       + self.layer_elementwise_seconds())
        if stage.has_embedding:
            compute += self._embedding_seconds()
        if stage.has_output_head:
            compute += self._head_seconds()
        return StageCost(
            compute_seconds=compute,
            tp_comm_seconds=n * self.layer_tp_comm_seconds()
            + (self.layer_tp_comm_seconds() / 2 if stage.has_output_head else 0.0),
            cp_comm_seconds=n * self.layer_cp_comm_seconds(),
            ep_comm_seconds=n * self.layer_ep_comm_seconds(),
        )

    def backward_seconds(self, stage: StageAssignment) -> StageCost:
        """Backward of one stage for one micro-batch: 2x forward compute,
        plus a recomputed forward when activation checkpointing is on.

        ``recompute`` accepts True (full recomputation: +1 forward),
        ``"selective"`` (recompute only the attention and SwiGLU
        activations — roughly the attention kernel plus the elementwise
        work, the production-style middle ground), or False.
        """
        return self._memoized(("bwd", stage),
                              lambda: self._backward_seconds(stage))

    def _backward_seconds(self, stage: StageAssignment) -> StageCost:
        fwd = self.forward_seconds(stage)
        if self.recompute == "selective":
            extra = stage.n_layers * (
                self.layer_attention_seconds()
                + self.layer_elementwise_seconds()
            )
            return StageCost(
                compute_seconds=2.0 * fwd.compute_seconds + extra,
                tp_comm_seconds=fwd.tp_comm_seconds,
                cp_comm_seconds=fwd.cp_comm_seconds,
                ep_comm_seconds=fwd.ep_comm_seconds,
            )
        factor = 3.0 if self.recompute else 2.0
        return StageCost(
            compute_seconds=factor * fwd.compute_seconds,
            tp_comm_seconds=(factor - 1.0) * fwd.tp_comm_seconds,
            cp_comm_seconds=fwd.cp_comm_seconds,
            ep_comm_seconds=(factor - 1.0) * fwd.ep_comm_seconds,
        )

    def backward_input_seconds(self, stage: StageAssignment) -> StageCost:
        """The input-grad (BI) half of a split backward (zero-bubble
        schedules): half the backward compute, plus all of its TP/CP
        communication — dgrad feeds the upstream send, so the comms sit
        on this, the critical, half."""
        return self._memoized(
            ("bwd_input", stage),
            lambda: split_backward_cost(self.backward_seconds(stage))[0],
        )

    def backward_weight_seconds(self, stage: StageAssignment) -> StageCost:
        """The weight-grad (BW) half of a split backward: the remaining
        compute, communication-free and rank-local, deferrable into
        pipeline bubbles."""
        return self._memoized(
            ("bwd_weight", stage),
            lambda: split_backward_cost(self.backward_seconds(stage))[1],
        )

    # ------------------------------------------------------------------
    # Inter-stage and step-level communication
    # ------------------------------------------------------------------

    def p2p_seconds(self) -> float:
        """Activation hand-off between consecutive PP stages.

        With sequence parallelism the activation is sequence-sharded
        across TP ranks, so each rank sends only its ``1 / tp`` slice.
        PP ranks sit at stride ``tp * cp * ep`` in the rank order, so
        consecutive stages are on different nodes whenever
        ``tp * cp * ep >= gpus_per_node`` — the common case, making PP
        traffic inter-node (RoCE).
        """
        return self._memoized("p2p", self._p2p_seconds)

    def _p2p_seconds(self) -> float:
        stride = self.parallel.tp * self.parallel.cp * self.parallel.ep
        dst = min(stride, self.cluster.num_gpus - 1)
        act_bytes = 2.0 * self.tokens * self.model.dim / self.parallel.tp
        return p2p_time(self.cluster, 0, dst, act_bytes, self.congestion)

    def fsdp_allgather_seconds(self, params_on_rank: float) -> float:
        """One FSDP parameter all-gather for this rank's shard (only the
        first is exposed; the rest overlap with compute, Section 7.3.1)."""
        def compute() -> float:
            group = self._fsdp_group
            if len(group) == 1:
                return 0.0
            bytes_total = 2.0 * params_on_rank
            return all_gather_time(self.cluster, group, bytes_total,
                                   self.congestion).seconds
        return self._memoized(("fsdp_ag", params_on_rank), compute)

    def fsdp_reduce_scatter_seconds(self, params_on_rank: float) -> float:
        """One gradient reduce-scatter (FP32 wire, Section 6.2)."""
        def compute() -> float:
            group = self._fsdp_group
            if len(group) == 1:
                return 0.0
            bytes_total = 4.0 * params_on_rank
            return reduce_scatter_time(self.cluster, group, bytes_total,
                                       self.congestion).seconds
        return self._memoized(("fsdp_rs", params_on_rank), compute)

    def optimizer_seconds(self, params_on_rank: float) -> float:
        """Sharded Adam step: memory-bound over master + moments."""
        shard = params_on_rank / self.parallel.grad_shard_degree
        bytes_moved = shard * (4 * 4 + 2 * 4)  # read m, v, master, grad; write
        return bytes_moved / self.cluster.gpu.hbm_bandwidth

    @cached_property
    def _fsdp_group(self) -> List[int]:
        """The DP x CP process group of global rank 0 — the group FSDP
        parameter/gradient collectives run over (Section 4, Integration);
        built once per model."""
        return DeviceMesh(self.parallel).dp_cp_group_of(0)
