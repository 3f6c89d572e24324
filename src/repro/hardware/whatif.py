"""Quantified versions of the Section 8 hardware recommendations.

The paper closes with qualitative advice for future training hardware;
each function here turns one recommendation into a measurable experiment
on our substrates:

* :func:`hbm_capacity_sweep` — "higher HBM capacity can improve
  performance": sweep the HBM size, pick the best feasible (tp, pp) at
  each point, and watch throughput step up when lower TP degrees become
  feasible (the 2K-GPU tp=8 -> tp=4 ~10% story of Section 8.1).
* :func:`dvfs_jitter_inflation` — "minimize performance variations and
  make DVFS deterministic": under fine-grain synchronisation the cluster
  runs at the per-step *max* across accelerators, so i.i.d. transient
  slowdowns inflate elapsed time ~log(world)-style, while the same
  average slowdown applied deterministically costs only its mean.
* :func:`oversubscription_sweep` — "optimize network hierarchy": spine
  oversubscription divides inter-node bandwidth; throughput degrades
  gracefully while inter-node traffic is hideable or small, which is what
  makes oversubscribed upper tiers cost-effective.
* :func:`perf_per_watt` — "prioritize power efficiency": achieved
  TFLOPs per watt of board power, the paper's capacity-constrained metric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.hardware.cluster import ClusterSpec
from repro.model.config import TextModelConfig

if TYPE_CHECKING:  # typing only — avoids a package import cycle
    from repro.parallel.config import JobConfig, ParallelConfig


@dataclass(frozen=True)
class CapacityPoint:
    """Best feasible configuration at one HBM capacity."""

    capacity_gb: float
    best_tp: Optional[int]
    best_pp: Optional[int]
    tflops_per_gpu: float
    peak_memory_gb: float


def hbm_capacity_sweep(
    model: TextModelConfig,
    job: "JobConfig",
    cluster: ClusterSpec,
    capacities_gb: Sequence[float],
    v: Optional[int] = None,
) -> List[CapacityPoint]:
    """For each HBM capacity, the best feasible (tp, pp) by TFLOPs, over
    tp and pp in (2, 4, 8).

    A configuration is feasible when its simulated peak memory fits in
    90% of the capacity; one whose simulation fails never is.  Larger
    HBM admits smaller TP degrees (less exposed TP communication) — the
    Section 8.1 effect.
    """
    from repro.parallel.config import ParallelConfig, ZeroStage
    from repro.parallel.search import Candidate, evaluate, rank_key, within_budget

    if not capacities_gb:
        raise ValueError("capacities_gb must name at least one capacity")
    # The simulated step does not depend on the capacity: price each
    # layout once, then gate the same candidates at every capacity.
    simulated = []
    for tp in (2, 4, 8):
        if tp > cluster.gpus_per_node:
            continue
        for pp in (2, 4, 8):
            dp = job.ngpu // (tp * pp)
            if dp < 1 or tp * pp * dp != job.ngpu or job.gbs % dp != 0:
                continue
            par = ParallelConfig(tp=tp, cp=1, pp=pp, dp=dp,
                                 zero=ZeroStage.ZERO_1)
            simulated.append(evaluate(model, job, cluster, Candidate.of(
                par, job, kind="flexible", v=v)))
    points = []
    for cap in capacities_gb:
        best = sorted((within_budget(c, cap * 0.9) for c in simulated), key=rank_key)
        points.append(
            CapacityPoint(cap, best[0].tp, best[0].pp, best[0].tflops_per_gpu,
                          best[0].simulated_peak_gb)
            if best and best[0].feasible
            else CapacityPoint(cap, None, None, 0.0, 0.0))
    return points


@dataclass(frozen=True)
class JitterReport:
    """Elapsed-time inflation from per-accelerator performance variation."""

    world_size: int
    baseline_seconds: float
    deterministic_seconds: float
    jitter_seconds: float

    @property
    def deterministic_inflation(self) -> float:
        return self.deterministic_seconds / self.baseline_seconds - 1.0

    @property
    def jitter_inflation(self) -> float:
        return self.jitter_seconds / self.baseline_seconds - 1.0


def dvfs_jitter_inflation(
    world_size: int,
    rng: Optional[np.random.Generator] = None,
) -> JitterReport:
    """Elapsed time of a synchronous workload under DVFS variation.

    1000 sync points (collectives) of 1 ms ops each run at the pace of
    the slowest of ``world_size`` accelerators.  *Deterministic*
    slowdown: every op on every rank is uniformly 2% slower — elapsed
    inflates by exactly that mean.  *Transient jitter*: each rank's op is
    slowed by an exponential with the same mean, at different times on
    different ranks — the per-sync max makes the cluster pay the tail,
    not the mean.
    """
    if world_size < 1:
        raise ValueError("world_size must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    sync_points, op_seconds, slowdown_mean = 1000, 1e-3, 0.02
    baseline = sync_points * op_seconds
    deterministic = sync_points * op_seconds * (1.0 + slowdown_mean)
    jitter_draws = rng.exponential(
        slowdown_mean * op_seconds, size=(sync_points, world_size)
    )
    jitter = float(np.sum(op_seconds + jitter_draws.max(axis=1)))
    return JitterReport(
        world_size=world_size,
        baseline_seconds=baseline,
        deterministic_seconds=deterministic,
        jitter_seconds=jitter,
    )


def oversubscription_sweep(
    model: TextModelConfig,
    parallel: "ParallelConfig",
    job: "JobConfig",
    cluster: ClusterSpec,
    factors: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    v: Optional[int] = None,
) -> Dict[float, float]:
    """Achieved TFLOPs/GPU as the spine oversubscription factor grows.

    Oversubscription divides the effective *inter-node* bandwidth that DP
    and PP traffic sees; intra-node NVLink (TP) is unaffected, which is
    why mild oversubscription is cheap under the [TP, CP, PP, DP]
    placement.
    """
    from repro.hardware.network import LinkSpec
    from repro.train.step import simulate_step

    out = {}
    for f in factors:
        if f < 1.0:
            raise ValueError("oversubscription factors must be >= 1.0")
        link = cluster.inter_node_link
        derated = replace(
            cluster,
            oversubscription=f,
            inter_node_link=LinkSpec(
                name=f"{link.name}/{f:g}x-oversub",
                bandwidth_gbps=link.bandwidth_gbps / f,
                latency_us=link.latency_us,
            ),
        )
        rep = simulate_step(model, parallel, job, derated, v=v)
        out[f] = rep.tflops_per_gpu
    return out


def perf_per_watt(tflops_per_gpu: float, cluster: ClusterSpec) -> float:
    """Achieved TFLOPs per watt of accelerator board power — the metric
    the paper argues matters most for 100K-GPU, power-capped clusters."""
    if tflops_per_gpu < 0:
        raise ValueError("tflops_per_gpu must be non-negative")
    return tflops_per_gpu / cluster.gpu.tdp_watts
