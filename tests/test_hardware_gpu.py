"""Tests for GPU specs and the roofline GEMM model."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware.gpu import (
    H100_HBM2E,
    H100_HBM3,
    gemm_efficiency,
    gemm_time,
)


class TestGpuSpec:
    def test_h100_hbm3_headline_numbers(self):
        assert H100_HBM3.peak_bf16_tflops == 989.0
        assert H100_HBM3.hbm_capacity_gb == 80.0
        assert H100_HBM3.tdp_watts == 700.0

    def test_hbm2e_has_lower_bandwidth_same_compute(self):
        assert H100_HBM2E.peak_bf16_tflops == H100_HBM3.peak_bf16_tflops
        assert H100_HBM2E.hbm_bandwidth_gbps < H100_HBM3.hbm_bandwidth_gbps

    def test_unit_conversions(self):
        assert H100_HBM3.peak_flops == pytest.approx(989e12)
        assert H100_HBM3.hbm_bandwidth == pytest.approx(3350e9)


class TestGemmEfficiency:
    def test_large_gemm_approaches_saturation(self):
        eff = gemm_efficiency(8192, 8192, 8192)
        assert 0.5 < eff < 0.58

    def test_small_dims_hurt(self):
        assert gemm_efficiency(32, 8192, 8192) < gemm_efficiency(
            8192, 8192, 8192
        )

    def test_monotone_in_each_dim(self):
        base = gemm_efficiency(256, 256, 256)
        assert gemm_efficiency(512, 256, 256) > base
        assert gemm_efficiency(256, 512, 256) > base
        assert gemm_efficiency(256, 256, 512) > base

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gemm_efficiency(0, 10, 10)

    @given(
        st.integers(min_value=1, max_value=65536),
        st.integers(min_value=1, max_value=65536),
        st.integers(min_value=1, max_value=65536),
    )
    def test_always_a_fraction(self, m, n, k):
        assert 0.0 < gemm_efficiency(m, n, k) < 1.0


class TestGemmTime:
    def test_compute_bound_large_gemm(self):
        # 8K^3 GEMM: ~1.1 PFLOP at ~550 TFLOPs -> about 2 ms.
        t = gemm_time(H100_HBM3, 8192, 8192, 8192)
        flops = 2 * 8192**3
        assert flops / t < H100_HBM3.peak_flops  # cannot beat peak
        assert 1e-3 < t < 5e-3

    def test_memory_bound_skinny_gemm(self):
        # m=1: streaming the weight matrix dominates.
        t = gemm_time(H100_HBM3, 1, 8192, 8192)
        weight_bytes = 2 * 8192 * 8192
        assert t >= weight_bytes / H100_HBM3.hbm_bandwidth

    def test_launch_overhead_included_by_default(self):
        launch = H100_HBM3.kernel_launch_us * 1e-6
        assert gemm_time(H100_HBM3, 1, 1, 1) == pytest.approx(launch, rel=1e-3)

    def test_slower_hbm_slows_memory_bound_ops(self):
        t3 = gemm_time(H100_HBM3, 1, 8192, 8192)
        t2e = gemm_time(H100_HBM2E, 1, 8192, 8192)
        assert t2e > t3

    @given(st.integers(min_value=1, max_value=4096))
    def test_time_monotone_in_m(self, m):
        assert gemm_time(H100_HBM3, m + 64, 1024, 1024) > gemm_time(
            H100_HBM3, m, 1024, 1024
        ) * 0.999
