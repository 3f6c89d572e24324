"""Tests for the end-to-end step simulation: the Section 7.3 numbers."""

import pytest

from repro.hardware.cluster import GRAND_TETON_16K, grand_teton
from repro.model.config import LLAMA3_405B, LLAMA3_405B_SCALED_26L
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage
from repro.train.cost import CostModel
from repro.train.step import simulate_step

PAR_8K = ParallelConfig(tp=8, cp=1, pp=16, dp=128, zero=ZeroStage.ZERO_2)
JOB_8K = JobConfig(seq=8192, gbs=2048, ngpu=16384)
PAR_131K = ParallelConfig(tp=8, cp=16, pp=16, dp=8, zero=ZeroStage.ZERO_2)
JOB_131K = JobConfig(seq=131072, gbs=128, ngpu=16384)


@pytest.fixture(scope="module")
def step_8k():
    return simulate_step(LLAMA3_405B, PAR_8K, JOB_8K, GRAND_TETON_16K)


@pytest.fixture(scope="module")
def step_131k():
    return simulate_step(LLAMA3_405B, PAR_131K, JOB_131K, GRAND_TETON_16K,
                         attention_straggler=1.44)


class TestHeadlineThroughput:
    def test_8k_near_400_tflops(self, step_8k):
        """Section 7.3: 400 TFLOPs/GPU at 8K sequence length."""
        assert 360 < step_8k.tflops_per_gpu < 460

    def test_131k_near_380_tflops(self, step_131k):
        """Section 7.3: 380 TFLOPs/GPU at 131K with the measured 1.44x
        document-mask attention straggler."""
        assert 340 < step_131k.tflops_per_gpu < 440

    def test_long_context_below_short(self, step_8k, step_131k):
        assert step_131k.tflops_per_gpu < step_8k.tflops_per_gpu

    def test_memory_fits_80gb(self, step_8k, step_131k):
        assert step_8k.max_peak_memory_gb < 80
        assert step_131k.max_peak_memory_gb < 80

    def test_table2_configs_report_fits(self, step_8k, step_131k):
        assert step_8k.hbm_capacity_gb == GRAND_TETON_16K.gpu.hbm_capacity_gb
        assert step_8k.fits and step_131k.fits

    def test_step_decomposition(self, step_8k):
        assert step_8k.step_seconds == pytest.approx(
            step_8k.pipeline_seconds + step_8k.exposed_fsdp_seconds
            + step_8k.optimizer_seconds
        )
        assert step_8k.exposed_fsdp_seconds < 0.1 * step_8k.step_seconds


class TestOverHbm:
    def test_unpipelined_405b_does_not_fit(self):
        """405B at tp8/pp1/dp2048 peaks near 139 GiB on an 80 GiB H100:
        the report must say it does not fit rather than pass silently."""
        par = ParallelConfig(tp=8, cp=1, pp=1, dp=2048)
        rep = simulate_step(LLAMA3_405B, par, JOB_8K, GRAND_TETON_16K,
                            schedule_kind="1f1b-noninterleaved")
        assert rep.max_peak_memory_gb > rep.hbm_capacity_gb == 80.0
        assert rep.fits is False


class TestBubbleRatios:
    def test_bs_equals_pp_near_12_percent(self, step_8k):
        """Section 7.3.1: ~12% bubble ratio when bs = pp."""
        assert 0.08 < step_8k.mean_bubble_ratio < 0.20

    def test_bs_twice_pp_near_5_percent(self):
        """Section 7.3.1: ~5% bubble ratio when bs = 2 * pp."""
        par = ParallelConfig(tp=8, cp=1, pp=16, dp=64, zero=ZeroStage.ZERO_1)
        job = JobConfig(seq=8192, gbs=2048, ngpu=8192)
        r = simulate_step(LLAMA3_405B, par, job, GRAND_TETON_16K)
        assert 0.03 < r.mean_bubble_ratio < 0.11
        assert r.mean_bubble_ratio < step_bubble_8k()


def step_bubble_8k():
    return simulate_step(LLAMA3_405B, PAR_8K, JOB_8K,
                         GRAND_TETON_16K).mean_bubble_ratio


class TestCostModel:
    CLUSTER = grand_teton(1024)

    def _cost(self, **kw):
        par = ParallelConfig(tp=8, cp=1, pp=4, dp=32, **kw.pop("par", {}))
        job = JobConfig(seq=8192, gbs=256, ngpu=1024)
        return CostModel(LLAMA3_405B_SCALED_26L, par, job, self.CLUSTER, **kw)

    def test_recompute_inflates_backward(self):
        from repro.pp.layout import build_layout
        layout = build_layout(26, 4, 7)
        stage = layout.stage(3)
        base = self._cost().backward_seconds(stage).compute_seconds
        rec = self._cost(recompute=True).backward_seconds(stage)
        assert rec.compute_seconds > 1.4 * base

    def test_congestion_slows_comm(self):
        base = self._cost().p2p_seconds()
        congested = self._cost(congestion=2.0).p2p_seconds()
        assert congested > base

    def test_straggler_scales_attention(self):
        base = self._cost().layer_attention_seconds()
        slow = self._cost(attention_straggler=1.5).layer_attention_seconds()
        assert slow == pytest.approx(1.5 * base)

    def test_tp_beyond_node_rejected(self):
        par = ParallelConfig(tp=16, cp=1, pp=4, dp=16)
        job = JobConfig(seq=8192, gbs=256, ngpu=1024)
        with pytest.raises(ValueError):
            CostModel(LLAMA3_405B, par, job, self.CLUSTER)

    def test_tp1_cp1_have_no_comm(self):
        par = ParallelConfig(tp=1, cp=1, pp=8, dp=128)
        job = JobConfig(seq=8192, gbs=256, ngpu=1024)
        cost = CostModel(LLAMA3_405B_SCALED_26L, par, job, self.CLUSTER)
        assert cost.layer_tp_comm_seconds() == 0.0
        assert cost.layer_cp_comm_seconds() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            self._cost(attention_straggler=0.5)
        with pytest.raises(ValueError):
            self._cost(mask_fraction=0.0)


class TestTPAblation:
    def test_tp4_beats_tp8_when_memory_allows(self):
        """Section 8.1: on 2K GPUs, reducing TP from 8 to 4 gave ~10%
        end-to-end improvement (when HBM capacity allows it)."""
        cluster = grand_teton(2048)
        job = JobConfig(seq=8192, gbs=512, ngpu=2048)
        tp8 = simulate_step(
            LLAMA3_405B_SCALED_26L,
            ParallelConfig(tp=8, cp=1, pp=4, dp=64, zero=ZeroStage.ZERO_1),
            job, cluster, v=7,
        )
        tp4 = simulate_step(
            LLAMA3_405B_SCALED_26L,
            ParallelConfig(tp=4, cp=1, pp=4, dp=128, zero=ZeroStage.ZERO_1),
            job, cluster, v=7,
        )
        gain = tp4.tflops_per_gpu / tp8.tflops_per_gpu - 1
        assert 0.02 < gain < 0.25
        # The cost: more memory per rank.
        assert tp4.max_peak_memory_gb > tp8.max_peak_memory_gb
