"""GPU accelerator specifications and a roofline compute-time model.

The paper trains on NVIDIA H100 GPUs (700 W TDP, 80 GB HBM3) and also runs
context-parallel scalability studies on an HBM2e variant (Section 7.2).  We
capture each part as a :class:`GpuSpec` and provide a roofline-style model
for the time of a dense operation: an op with ``flops`` floating point
operations and ``bytes`` of memory traffic runs at

    time = max(flops / (peak_flops * eff), bytes / hbm_bandwidth)

where ``eff`` is a shape-dependent efficiency in (0, 1] that penalises small
GEMM dimensions — the effect Section 8.1 warns about ("parallelisms reduce
the dimension of GEMMs").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GpuSpec:
    """Fixed characteristics of one accelerator.

    Attributes:
        name: Human-readable part name.
        peak_bf16_tflops: Dense BF16 tensor-core throughput in TFLOP/s.
        hbm_capacity_gb: HBM capacity in GiB.
        hbm_bandwidth_gbps: HBM bandwidth in GB/s.
        tdp_watts: Board power limit in watts.
        kernel_launch_us: Fixed host-side overhead charged per kernel, in
            microseconds.  Models the CPU-bound regime of Section 8.1.
    """

    name: str
    peak_bf16_tflops: float
    hbm_capacity_gb: float
    hbm_bandwidth_gbps: float
    tdp_watts: float = 700.0
    kernel_launch_us: float = 5.0

    @property
    def peak_flops(self) -> float:
        """Peak BF16 throughput in FLOP/s."""
        return self.peak_bf16_tflops * 1e12

    @property
    def hbm_bandwidth(self) -> float:
        """HBM bandwidth in bytes/s."""
        return self.hbm_bandwidth_gbps * 1e9


#: Production Llama 3 training part (Section 7.3): H100 SXM, 80 GB HBM3.
H100_HBM3 = GpuSpec(
    name="H100-HBM3",
    peak_bf16_tflops=989.0,
    hbm_capacity_gb=80.0,
    hbm_bandwidth_gbps=3350.0,
    tdp_watts=700.0,
)

#: Lower-memory-bandwidth H100 used for the CP scalability study (Section 7.2).
H100_HBM2E = GpuSpec(
    name="H100-HBM2e",
    peak_bf16_tflops=989.0,
    hbm_capacity_gb=80.0,
    hbm_bandwidth_gbps=2000.0,
    tdp_watts=700.0,
)

#: H100 successor with the same compute but 141 GB HBM3e — the "higher HBM
#: capacity" direction Section 8.1 recommends, with public specs.
H200 = GpuSpec(
    name="H200",
    peak_bf16_tflops=989.0,
    hbm_capacity_gb=141.0,
    hbm_bandwidth_gbps=4800.0,
    tdp_watts=700.0,
)

#: Next-generation part (dense BF16, public figures): compute grows faster
#: than interconnect — the regime where the Section 8 recommendations about
#: arithmetic intensity and network co-design start to bind hard.
B200 = GpuSpec(
    name="B200",
    peak_bf16_tflops=2250.0,
    hbm_capacity_gb=192.0,
    hbm_bandwidth_gbps=8000.0,
    tdp_watts=1000.0,
)


def relative_compute_scale(gpu: GpuSpec) -> float:
    """Compute-time multiplier of ``gpu`` relative to the H100.

    A slower part gets a multiplier > 1 (its ops take longer); a faster
    part < 1.  This is what heterogeneous pipeline stages
    (:mod:`repro.pp.heterogeneity`) attach to a
    :class:`~repro.pp.analysis.ScheduleShape` as per-stage compute scale.
    """
    return H100_HBM3.peak_bf16_tflops / gpu.peak_bf16_tflops


def gemm_efficiency(m: int, n: int, k: int) -> float:
    """Shape-dependent fraction of peak a GEMM of size (m, n, k) achieves.

    Isolated large GEMM kernels reach ~75-80% of H100 peak, but sustained
    end-to-end training GEMM throughput is lower: wave quantisation, CPU
    launch gaps between back-to-back kernels, and the 700 W power cap all
    shave the average.  The saturation constant is calibrated so the
    end-to-end step simulation reproduces the paper's ~400 TFLOPs/GPU for
    the 405B 8K-sequence configuration; small dimensions fall off further
    because tiles underfill the SMs (the Section 8.1 concern).
    """
    if min(m, n, k) <= 0:
        raise ValueError(f"GEMM dims must be positive, got ({m}, {n}, {k})")
    saturation = 0.58
    # Each dimension contributes d / (d + d_half); d_half is the size at
    # which that dimension alone halves throughput.
    d_half = 96.0
    shape_factor = 1.0
    for dim in (m, n, k):
        shape_factor *= dim / (dim + d_half)
    return saturation * shape_factor


def gemm_time(
    gpu: GpuSpec,
    m: int,
    n: int,
    k: int,
) -> float:
    """Seconds to run a single BF16 (m x k) @ (k x n) GEMM on ``gpu``.

    Combines the shape-efficiency curve with a memory roofline over the
    three operand tensors, plus a fixed kernel-launch overhead.
    """
    flops = 2.0 * m * n * k
    bytes_moved = 2 * (m * k + k * n + m * n)
    compute_time = flops / (gpu.peak_flops * gemm_efficiency(m, n, k))
    memory_time = bytes_moved / gpu.hbm_bandwidth
    return max(compute_time, memory_time) + gpu.kernel_launch_us * 1e-6
