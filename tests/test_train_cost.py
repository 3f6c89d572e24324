"""Focused tests for the per-op cost model."""

import pytest

from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_405B, LLAMA3_405B_SCALED_26L
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage
from repro.parallel.mesh import DeviceMesh
from repro.pp.layout import build_layout
from repro.train.cost import CostModel

CLUSTER = grand_teton(2048)
JOB = JobConfig(seq=8192, gbs=512, ngpu=2048)


def _cost(tp=8, cp=1, pp=4, **kw):
    dp = 2048 // (tp * cp * pp)
    par = ParallelConfig(tp=tp, cp=cp, pp=pp, dp=dp, zero=ZeroStage.ZERO_1)
    return CostModel(LLAMA3_405B_SCALED_26L, par, par and JOB, CLUSTER, **kw)


class TestLayerPieces:
    def test_gemm_time_shrinks_with_tp(self):
        assert _cost(tp=8).layer_gemm_seconds() < \
            _cost(tp=4).layer_gemm_seconds()

    def test_cp_shards_tokens(self):
        job_long = JobConfig(seq=131072, gbs=512, ngpu=2048)
        par = ParallelConfig(tp=8, cp=16, pp=4, dp=4, zero=ZeroStage.ZERO_1)
        c = CostModel(LLAMA3_405B, par, job_long, CLUSTER)
        assert c.tokens == 131072 // 16

    def test_tp_comm_exposed_four_collectives(self):
        """TP communicates four times per layer (Section 5.2): the
        per-layer comm equals 2 x (AG + RS) of the activation."""
        c = _cost(tp=8)
        single_pair = c.layer_tp_comm_seconds() / 2
        assert single_pair > 0

    def test_cp_comm_zero_without_cp(self):
        assert _cost(cp=1).layer_cp_comm_seconds() == 0.0

    def test_attention_time_scales_with_mask_fraction(self):
        dense = _cost(mask_fraction=1.0).layer_attention_seconds()
        causal = _cost(mask_fraction=0.5).layer_attention_seconds()
        assert causal < dense

    def test_elementwise_memory_bound(self):
        """Elementwise time scales with HBM bandwidth, not compute."""
        from repro.hardware.gpu import H100_HBM2E, H100_HBM3
        slow = CostModel(
            LLAMA3_405B_SCALED_26L,
            ParallelConfig(tp=8, cp=1, pp=4, dp=64, zero=ZeroStage.ZERO_1),
            JOB, grand_teton(2048, H100_HBM2E))
        fast = CostModel(
            LLAMA3_405B_SCALED_26L,
            ParallelConfig(tp=8, cp=1, pp=4, dp=64, zero=ZeroStage.ZERO_1),
            JOB, grand_teton(2048, H100_HBM3))
        assert slow.layer_elementwise_seconds() > \
            fast.layer_elementwise_seconds()


class TestStageCosts:
    LAYOUT = build_layout(26, 4, 7)

    def test_head_stage_costs_more_than_empty(self):
        c = _cost()
        head_stage = self.LAYOUT.stage(27)
        empty = self.LAYOUT.stage(0)
        assert head_stage.n_layers == empty.n_layers == 0
        assert c.forward_seconds(head_stage).compute_seconds > \
            c.forward_seconds(empty).compute_seconds

    def test_backward_selective_between_none_and_full(self):
        stage = self.LAYOUT.stage(3)
        none = _cost(recompute=False).backward_seconds(stage)
        sel = _cost(recompute="selective").backward_seconds(stage)
        full = _cost(recompute=True).backward_seconds(stage)
        assert none.compute_seconds < sel.compute_seconds \
            < full.compute_seconds

    def test_stage_cost_total(self):
        c = _cost()
        cost = c.forward_seconds(self.LAYOUT.stage(3))
        assert cost.total_seconds == pytest.approx(
            cost.compute_seconds + cost.tp_comm_seconds
            + cost.cp_comm_seconds)


class TestStepLevelComm:
    def test_p2p_crosses_nodes_when_mp_fills_node(self):
        """With tp*cp >= 8, consecutive PP stages live on different
        nodes: P2P time reflects RoCE, not NVLink."""
        roce = _cost(tp=8).p2p_seconds()
        par = ParallelConfig(tp=2, cp=1, pp=4, dp=256,
                             zero=ZeroStage.ZERO_1)
        nvlink = CostModel(LLAMA3_405B_SCALED_26L, par, JOB,
                           CLUSTER).p2p_seconds()
        # Same payload per TP shard would be 4x bigger at tp=2, yet the
        # NVLink hop is still faster than RoCE.
        assert nvlink < roce * 4

    def test_fsdp_costs_scale_with_params(self):
        c = _cost()
        small = c.fsdp_reduce_scatter_seconds(1e9)
        large = c.fsdp_reduce_scatter_seconds(4e9)
        assert 3.5 < large / small < 4.5

    def test_fsdp_free_without_dp(self):
        par = ParallelConfig(tp=8, cp=1, pp=256, dp=1,
                             zero=ZeroStage.ZERO_1)
        c = CostModel(LLAMA3_405B, par, JobConfig(seq=8192, gbs=512,
                                                  ngpu=2048), CLUSTER)
        assert c.fsdp_allgather_seconds(1e9) == 0.0

    def test_optimizer_memory_bound(self):
        c = _cost()
        assert c.optimizer_seconds(2e9) == pytest.approx(
            2 * c.optimizer_seconds(1e9))


def _sorted_dp_cp_group(tp, cp, ep, pp, dp):
    """The cost model's former private copy of rank 0's DP x CP group."""
    dp_stride = tp * cp * ep * pp
    ranks = sorted(d * dp_stride + c * tp for d in range(dp) for c in range(cp))
    return ranks if len(ranks) > 1 else [0]


class TestFsdpGroup:
    @pytest.mark.parametrize("tp,cp,ep,pp,dp", [
        (1, 1, 1, 1, 1), (8, 1, 1, 1, 1), (2, 1, 1, 4, 1),
        (1, 1, 1, 1, 4), (2, 4, 1, 1, 1), (2, 2, 1, 2, 2),
        (1, 1, 4, 1, 1), (2, 1, 4, 2, 2), (2, 2, 2, 2, 2),
        (8, 16, 1, 4, 4), (8, 1, 1, 16, 128), (1, 3, 2, 1, 3),
    ])
    def test_equals_the_mesh_group_of_rank_zero(self, tp, cp, ep, pp, dp):
        par = ParallelConfig(tp=tp, cp=cp, ep=ep, pp=pp, dp=dp)
        assert (DeviceMesh(par).dp_cp_group_of(0)
                == _sorted_dp_cp_group(tp, cp, ep, pp, dp))
