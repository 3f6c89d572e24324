"""Slow-rank debugging at scale (Section 6.1, Figure 8).

Run:
    python examples/debug_slow_rank.py

Builds the paper's exact scenario — 8 GPUs with (cp=2, tp=4), a fault on
rank 6 — shows why naive TP-group inspection fingers the wrong rank, then
runs the top-down search.  Finally repeats on a 512-GPU 4D mesh and dumps
a Perfetto trace you can open at ui.perfetto.dev.
"""

import pathlib

from repro.debug import identify_slow_rank, run_synthetic_workload
from repro.faults import ComputeStraggler, FaultPlan
from repro.obs.trace import export_chrome_trace
from repro.parallel import DeviceMesh, ParallelConfig


def figure8_demo() -> None:
    print("=== Figure 8: 8 GPUs, (cp=2, tp=4), fault injected on rank 6 ===")
    mesh = DeviceMesh(ParallelConfig(tp=4, cp=2))
    sim = run_synthetic_workload(mesh, faults=FaultPlan((
        ComputeStraggler(rank=6, extra_seconds=0.5),)))

    # Naive view: inside TP group [0..3], which rank has the *shortest*
    # collective spans (i.e. joins last, everyone waits for it)?
    print("\nnaive TP-group view (group [0, 1, 2, 3]):")
    for rank in mesh.group_of(2, "tp"):
        span = sum(e.duration for e in sim.events_for(rank, kind="comm")
                   if e.name.startswith("tp:"))
        print(f"  rank {rank}: total TP-collective span {span:.2f} s")
    print("  -> rank 2 looks slowest here, but it is only waiting for its"
          " CP peer!")

    report = identify_slow_rank(sim, mesh)
    print("\ntop-down search:")
    print(report.describe())


def scale_demo() -> None:
    print("\n=== 512-GPU 4D mesh (tp=8, cp=2, pp=4, dp=8), fault on rank"
          " 261 ===")
    mesh = DeviceMesh(ParallelConfig(tp=8, cp=2, pp=4, dp=8))
    sim = run_synthetic_workload(mesh, faults=FaultPlan((
        ComputeStraggler(rank=261, extra_seconds=0.8),)))
    report = identify_slow_rank(sim, mesh)
    print(report.describe())

    trace_path = pathlib.Path("slow_rank_trace.json")
    export_chrome_trace(sim, str(trace_path), mesh=mesh)
    print(f"\nPerfetto trace written to {trace_path} "
          "(open ui.perfetto.dev and load it)")


if __name__ == "__main__":
    figure8_demo()
    scale_demo()
