"""Ablation: the schedule design space around the paper's choices.

Uses the autotuner to sweep (schedule kind, nc, v) on the Figure 9 setup
and shows (a) the memory/throughput Pareto the paper navigates by hand,
(b) the Section 3.1.3 rule emerging from search: with ample memory the
winner hides P2P with large nc; under a tight budget the winner drops to
1F1B-like small nc.
"""

from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_405B_SCALED_26L
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage
from repro.pp.autotune import autotune_schedule, best_schedule

CLUSTER = grand_teton(1536)
PAR = ParallelConfig(tp=8, cp=1, pp=4, dp=48, zero=ZeroStage.ZERO_1)
JOB = JobConfig(seq=8192, gbs=576, ngpu=1536)


def test_schedule_design_space(report, benchmark):
    candidates = autotune_schedule(
        LLAMA3_405B_SCALED_26L, PAR, JOB, CLUSTER, memory_budget_gb=40.0,
        congestion=2.0,
    )
    report.line("Schedule design space (scaled-down 405B, pp=4, bs=12, "
                "P2P-congested):")
    for c in candidates[:10]:
        report.line("  " + c.describe())
    report.line(f"  ... {len(candidates)} candidates total")

    # The Pareto front: more memory buys more throughput up to AFAB.
    feasible = [c for c in candidates if c.feasible]
    assert feasible[0].tflops_per_gpu >= max(
        c.tflops_per_gpu for c in feasible
    )

    # Budget-dependent winners (the Section 3.1.3 trade-off, automated).
    roomy = best_schedule(LLAMA3_405B_SCALED_26L, PAR, JOB, CLUSTER,
                          memory_budget_gb=40.0, congestion=2.0)
    tight = best_schedule(LLAMA3_405B_SCALED_26L, PAR, JOB, CLUSTER,
                          memory_budget_gb=27.0, congestion=2.0)
    report.line()
    report.line(f"winner @40 GiB budget: {roomy.describe()}")
    report.line(f"winner @27 GiB budget: {tight.describe()}")
    assert roomy.nc >= tight.nc
    assert tight.simulated_peak_gb <= 27.0
    assert roomy.tflops_per_gpu >= tight.tflops_per_gpu

    benchmark.pedantic(
        best_schedule,
        args=(LLAMA3_405B_SCALED_26L, PAR, JOB, CLUSTER),
        kwargs={"memory_budget_gb": 40.0},
        rounds=1, iterations=1,
    )


def test_virtual_stage_ablation(report):
    """More virtual stages shrink the ideal bubble (Section 3.1.1's
    preference for more v) but add P2P hand-offs."""
    rows = []
    results = {}
    for v in (1, 7):
        cands = autotune_schedule(
            LLAMA3_405B_SCALED_26L, PAR, JOB, CLUSTER,
            memory_budget_gb=60.0, v_candidates=(v,), congestion=2.0,
        )
        best = next(c for c in cands if c.feasible)
        results[v] = best
        rows.append((v, best.kind, best.nc,
                     f"{best.tflops_per_gpu:.0f}",
                     f"{best.bubble_ratio:.3f}"))
    report.line()
    report.line("virtual-stage ablation (best schedule at each v):")
    report.table(["v", "kind", "nc", "TFLOPs/GPU", "bubble"], rows)
    assert results[7].bubble_ratio < results[1].bubble_ratio
