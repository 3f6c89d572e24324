"""Tests for the Section 5 planner — Table 2 reproduction."""

import pytest

from repro.hardware.cluster import GRAND_TETON_16K, grand_teton
from repro.model.config import LLAMA3_405B, LLAMA3_8B
from repro.parallel.config import (
    JobConfig,
    LLAMA3_405B_LONG_CONTEXT,
    LLAMA3_405B_SHORT_CONTEXT,
    ZeroStage,
)
from repro.parallel.memory import estimate_rank_memory
from repro.parallel.planner import (
    arithmetic_intensity_2d,
    hardware_flops_per_byte,
    plan_parallelism,
)


class TestTable2:
    """The headline planner result: Table 2 of the paper."""

    def test_short_context_row(self):
        plan = plan_parallelism(LLAMA3_405B, LLAMA3_405B_SHORT_CONTEXT,
                                GRAND_TETON_16K)
        p = plan.parallel
        assert (p.tp, p.cp, p.pp, p.dp) == (8, 1, 16, 128)
        assert plan.bs == 16

    def test_long_context_row(self):
        plan = plan_parallelism(LLAMA3_405B, LLAMA3_405B_LONG_CONTEXT,
                                GRAND_TETON_16K)
        p = plan.parallel
        assert (p.tp, p.cp, p.pp, p.dp) == (8, 16, 16, 8)
        assert plan.bs == 16

    def test_memory_fits_in_hbm(self):
        plan = plan_parallelism(LLAMA3_405B, LLAMA3_405B_SHORT_CONTEXT,
                                GRAND_TETON_16K)
        assert plan.estimated_rank0_memory_gb < 80.0

    def test_zero2_afab_because_bs_below_2pp(self):
        # Section 3.1.3 rule at bs = pp = 16.
        plan = plan_parallelism(LLAMA3_405B, LLAMA3_405B_SHORT_CONTEXT,
                                GRAND_TETON_16K)
        assert plan.parallel.zero is ZeroStage.ZERO_2
        assert plan.schedule == "afab"

    def test_zero1_1f1b_when_bs_large(self):
        # Halve the GPUs: dp shrinks, bs doubles to 32 = 2*pp.
        job = JobConfig(seq=8192, gbs=2048, ngpu=8192)
        plan = plan_parallelism(LLAMA3_405B, job, GRAND_TETON_16K)
        assert plan.bs >= 2 * plan.parallel.pp
        assert plan.parallel.zero is ZeroStage.ZERO_1
        assert plan.schedule == "1f1b"

    def test_rationale_is_recorded(self):
        plan = plan_parallelism(LLAMA3_405B, LLAMA3_405B_SHORT_CONTEXT,
                                GRAND_TETON_16K)
        text = plan.describe()
        assert "NVLink" in text
        assert "Section" in text


class TestPlannerReasoning:
    def test_arithmetic_intensity_2d(self):
        # The paper's example: 8K tokens -> 8K FLOPs/byte.
        assert arithmetic_intensity_2d(8192) == pytest.approx(8192)

    def test_hardware_ratio_19_78k(self):
        # 989 TFLOPs / 50 GB/s = 19.78K FLOPs/byte (Section 5.1).
        assert hardware_flops_per_byte(GRAND_TETON_16K) == pytest.approx(
            19780, rel=0.01
        )

    def test_small_model_needs_no_pipeline(self):
        job = JobConfig(seq=8192, gbs=512, ngpu=512)
        plan = plan_parallelism(LLAMA3_8B, job, grand_teton(512))
        assert plan.parallel.pp == 1

    def test_too_many_gpus_rejected(self):
        job = JobConfig(seq=8192, gbs=64, ngpu=128)
        with pytest.raises(ValueError):
            plan_parallelism(LLAMA3_8B, job, grand_teton(64))


class TestRankMemoryEstimator:
    from repro.parallel.config import ParallelConfig

    def test_zero_stage_ordering(self):
        """ZeRO-1 holds more memory than ZeRO-2 than ZeRO-3 (Figure 4's
        trade-off)."""
        from repro.parallel.config import ParallelConfig
        job = JobConfig(seq=8192, gbs=2048, ngpu=16384)
        peaks = {}
        for zero in ZeroStage:
            p = ParallelConfig(tp=8, cp=1, pp=16, dp=128, zero=zero)
            peaks[zero] = estimate_rank_memory(
                LLAMA3_405B, p, job, layers_on_rank=8,
                in_flight_microbatches=16, virtual_stages=8,
            ).total
        assert peaks[ZeroStage.ZERO_1] > peaks[ZeroStage.ZERO_2]
        assert peaks[ZeroStage.ZERO_2] > peaks[ZeroStage.ZERO_3]

    def test_recompute_saves_activation_memory(self):
        # Recompute is priced by the step's memory tracker; the analytic
        # estimator models the planner's no-recompute layouts only.
        from repro.parallel.config import ParallelConfig
        from repro.train.step import simulate_step
        job = JobConfig(seq=8192, gbs=8, ngpu=16)
        p = ParallelConfig(tp=2, cp=1, pp=4, dp=2)
        base = simulate_step(LLAMA3_8B, p, job, grand_teton(16))
        rec = simulate_step(LLAMA3_8B, p, job, grand_teton(16),
                            recompute=True)
        assert rec.max_peak_memory_gb < base.max_peak_memory_gb

    def test_cp_reduces_activations_at_fixed_seq(self):
        """Section 4: CP shards the sequence, shrinking activation
        memory even as bs rises."""
        from repro.parallel.config import ParallelConfig
        job = JobConfig(seq=131072, gbs=128, ngpu=16384)
        kwargs = dict(layers_on_rank=8, in_flight_microbatches=16,
                      virtual_stages=8)
        no_cp = estimate_rank_memory(
            LLAMA3_405B, ParallelConfig(tp=8, cp=1, pp=16, dp=128),
            job, **kwargs)
        with_cp = estimate_rank_memory(
            LLAMA3_405B, ParallelConfig(tp=8, cp=16, pp=16, dp=8),
            job, **kwargs)
        assert with_cp.activations == pytest.approx(
            no_cp.activations / 16
        )

    def test_validation(self):
        from repro.parallel.config import ParallelConfig
        job = JobConfig(seq=8192, gbs=16, ngpu=16)
        p = ParallelConfig(tp=8, pp=2)
        with pytest.raises(ValueError):
            estimate_rank_memory(LLAMA3_405B, p, job, layers_on_rank=-1,
                                 in_flight_microbatches=1)
        with pytest.raises(ValueError):
            estimate_rank_memory(LLAMA3_405B, p, job, layers_on_rank=1,
                                 in_flight_microbatches=1, virtual_stages=0)
