"""Tests for the schedule autotuner."""

import pytest

from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_405B_SCALED_26L
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage
from repro.pp.autotune import autotune_schedule, best_schedule

CLUSTER = grand_teton(1536)
PAR = ParallelConfig(tp=8, cp=1, pp=4, dp=48, zero=ZeroStage.ZERO_1)
JOB = JobConfig(seq=8192, gbs=576, ngpu=1536)


@pytest.fixture(scope="module")
def candidates():
    return autotune_schedule(LLAMA3_405B_SCALED_26L, PAR, JOB, CLUSTER,
                             memory_budget_gb=40.0)


class TestAutotune:
    def test_feasible_sorted_first_by_tflops(self, candidates):
        feasible = [c for c in candidates if c.feasible]
        assert feasible
        tflops = [c.tflops_per_gpu for c in feasible]
        assert tflops == sorted(tflops, reverse=True)
        first_infeasible = next(
            (i for i, c in enumerate(candidates) if not c.feasible), None)
        if first_infeasible is not None:
            assert all(not c.feasible for c in candidates[first_infeasible:])

    def test_covers_both_schedule_kinds(self, candidates):
        kinds = {c.kind for c in candidates}
        assert kinds == {"flexible", "afab"}

    def test_nc_candidates_divide_nmb(self, candidates):
        nmb = JOB.micro_batches(PAR)
        assert all(nmb % c.nc == 0 for c in candidates)

    def test_best_schedule_is_feasible(self):
        best = best_schedule(LLAMA3_405B_SCALED_26L, PAR, JOB, CLUSTER,
                             memory_budget_gb=40.0)
        assert best.feasible
        assert best.simulated_peak_gb <= 40.0

    def test_tight_budget_prefers_lean_schedules(self):
        """Shrinking the memory budget pushes the winner toward 1F1B-like
        small-nc schedules — the Figure 9 trade-off, automated."""
        roomy = best_schedule(LLAMA3_405B_SCALED_26L, PAR, JOB, CLUSTER,
                              memory_budget_gb=40.0)
        tight = best_schedule(LLAMA3_405B_SCALED_26L, PAR, JOB, CLUSTER,
                              memory_budget_gb=27.0)
        assert tight.simulated_peak_gb <= 27.0
        assert tight.tflops_per_gpu <= roomy.tflops_per_gpu

    def test_impossible_budget_raises(self):
        with pytest.raises(ValueError):
            best_schedule(LLAMA3_405B_SCALED_26L, PAR, JOB, CLUSTER,
                          memory_budget_gb=1.0)

    def test_describe(self, candidates):
        text = candidates[0].describe()
        assert "TFLOPs" in text and "GiB" in text
        assert "over budget" in next(
            c for c in candidates if not c.feasible).describe()
