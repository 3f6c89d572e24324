"""Tests for the Section 8 hardware what-if experiments."""

import numpy as np
import pytest

from repro.hardware.cluster import grand_teton
from repro.hardware.whatif import (
    dvfs_jitter_inflation,
    hbm_capacity_sweep,
    oversubscription_sweep,
    perf_per_watt,
)
from repro.model.config import LLAMA3_405B_SCALED_26L
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage

CLUSTER = grand_teton(2048)
JOB = JobConfig(seq=8192, gbs=512, ngpu=2048)


class TestHbmCapacitySweep:
    def test_more_hbm_never_hurts(self):
        points = hbm_capacity_sweep(
            LLAMA3_405B_SCALED_26L, JOB, CLUSTER,
            capacities_gb=(40, 60, 80, 120), v=7,
        )
        tflops = [p.tflops_per_gpu for p in points]
        assert all(b >= a for a, b in zip(tflops, tflops[1:]))

    def test_capacity_unlocks_lower_tp(self):
        """Section 8.1: with enough HBM, tp=4 beats tp=8 — the sweep
        should switch to a smaller TP as capacity grows."""
        points = hbm_capacity_sweep(
            LLAMA3_405B_SCALED_26L, JOB, CLUSTER,
            capacities_gb=(30, 120), v=7,
        )
        assert points[0].best_tp is not None
        assert points[1].best_tp is not None
        assert points[1].best_tp <= points[0].best_tp
        assert points[1].tflops_per_gpu > points[0].tflops_per_gpu

    def test_too_small_capacity_infeasible(self):
        points = hbm_capacity_sweep(
            LLAMA3_405B_SCALED_26L, JOB, CLUSTER, capacities_gb=(4,), v=7,
        )
        assert points[0].best_tp is None
        assert points[0].tflops_per_gpu == 0.0


class TestDvfsJitter:
    def test_deterministic_costs_only_the_mean(self):
        rep = dvfs_jitter_inflation(world_size=1024)
        assert rep.deterministic_inflation == pytest.approx(0.02)

    def test_jitter_costs_the_tail(self):
        """Transient per-rank slowdowns inflate elapsed time far beyond
        their mean — the Section 8.1 determinism argument."""
        rep = dvfs_jitter_inflation(world_size=1024)
        assert rep.jitter_inflation > 4 * rep.deterministic_inflation

    def test_inflation_grows_with_world_size(self):
        small = dvfs_jitter_inflation(world_size=8,
                                      rng=np.random.default_rng(1))
        large = dvfs_jitter_inflation(world_size=8192,
                                      rng=np.random.default_rng(1))
        assert large.jitter_inflation > small.jitter_inflation

    def test_single_rank_jitter_near_mean(self):
        rep = dvfs_jitter_inflation(world_size=1)
        assert rep.jitter_inflation == pytest.approx(0.02, rel=0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            dvfs_jitter_inflation(world_size=0)


class TestOversubscription:
    def test_throughput_degrades_monotonically(self):
        par = ParallelConfig(tp=8, cp=1, pp=4, dp=64, zero=ZeroStage.ZERO_1)
        out = oversubscription_sweep(
            LLAMA3_405B_SCALED_26L, par, JOB, CLUSTER,
            factors=(1.0, 4.0, 16.0), v=7,
        )
        assert out[1.0] > out[4.0] > out[16.0]

    def test_mild_oversubscription_cheap(self):
        """The Section 8.2 argument for oversubscribed upper tiers: 2x
        oversubscription costs only a few percent when inter-node traffic
        is P2P-light."""
        par = ParallelConfig(tp=8, cp=1, pp=4, dp=64, zero=ZeroStage.ZERO_1)
        out = oversubscription_sweep(
            LLAMA3_405B_SCALED_26L, par, JOB, CLUSTER, factors=(1.0, 2.0),
            v=7,
        )
        assert out[2.0] > 0.9 * out[1.0]


class TestErrorPaths:
    def test_empty_capacity_sweep_rejected(self):
        with pytest.raises(ValueError, match="at least one capacity"):
            hbm_capacity_sweep(
                LLAMA3_405B_SCALED_26L, JOB, CLUSTER, capacities_gb=(), v=7)

    def test_oversubscription_factor_below_one_rejected(self):
        par = ParallelConfig(tp=8, cp=1, pp=4, dp=64, zero=ZeroStage.ZERO_1)
        with pytest.raises(ValueError, match=">= 1.0"):
            oversubscription_sweep(
                LLAMA3_405B_SCALED_26L, par, JOB, CLUSTER,
                factors=(0.5,), v=7)


class TestPerfPerWatt:
    def test_value(self):
        assert perf_per_watt(400.0, CLUSTER) == pytest.approx(400 / 700)

    def test_validation(self):
        with pytest.raises(ValueError):
            perf_per_watt(-1.0, CLUSTER)
