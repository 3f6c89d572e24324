"""Section 6.1 / Figure 8: top-down slow-rank localisation.

Reproduces the paper's worked example — 8 GPUs with (cp=2, tp=4), where
the rank that *looks* slowest inside its TP group is actually waiting on
its CP peer — and scales the search to a 512-GPU 4D mesh.
"""

import numpy as np

from repro.debug.trace_analysis import identify_slow_rank
from repro.debug.workload import WorkloadSpec, run_synthetic_workload
from repro.faults import ComputeStraggler, FaultPlan
from repro.parallel.config import ParallelConfig
from repro.parallel.mesh import DeviceMesh


def test_figure8_example(report, benchmark):
    mesh = DeviceMesh(ParallelConfig(tp=4, cp=2))
    sim = run_synthetic_workload(mesh, faults=FaultPlan((
        ComputeStraggler(rank=6, extra_seconds=0.5),)))
    rep = identify_slow_rank(sim, mesh)

    report.line("Figure 8 scenario: 8 GPUs, (cp=2, tp=4), rank 6 injected "
                "with +0.5s per compute op")
    report.line()
    # Show the Figure 8 signature: within rank 2's TP group, rank 2 has
    # the shortest collective spans (it joins last, blocked by its CP peer
    # rank 6) — yet the verdict is rank 6.
    tp_group = mesh.group_of(2, "tp")
    rows = []
    for r in tp_group:
        spans = [e.duration for e in sim.events_for(r, kind="comm")
                 if e.name.startswith("tp:")]
        rows.append((r, f"{sum(spans):.2f}"))
    report.line("total TP-collective span per rank of TP group "
                f"{tp_group} (shortest = joins last = looks slow):")
    report.table(["rank", "tp span (s)"], rows)
    report.line()
    report.line(rep.describe())

    assert rep.slow_rank == 6
    assert rep.attribution == "compute"
    # Rank 2 has the shortest TP spans (the decoy) ...
    decoy = min(rows, key=lambda r: float(r[1]))[0]
    assert decoy == 2
    # ... but is exonerated by the top-down search.
    assert rep.slow_rank != decoy

    benchmark(identify_slow_rank, sim, mesh)


def test_onset_detection(report):
    """Section 6.1's inflection-point framing: find *when* a rank's
    behaviour changed, not just which rank is slow now."""
    from repro.debug.inflection import (
        detect_fleet_regressions,
        synth_step_durations,
    )

    rng = np.random.default_rng(0)
    series = {r: synth_step_durations(400, noise=0.01, rng=rng)
              for r in range(16)}
    series[11] = synth_step_durations(400, noise=0.01, fault_step=250,
                                      fault_slowdown=0.12, rng=rng)
    found = detect_fleet_regressions(series)
    report.line()
    report.line("onset detection over 16 ranks x 400 steps "
                "(rank 11 throttles +12% at step 250):")
    for c in found:
        report.line(f"  rank {c.rank}: regime change at step {c.step}, "
                    f"{c.slowdown * 100:+.1f}% (score {c.score:.1f})")
    assert found and found[0].rank == 11
    assert abs(found[0].step - 250) <= 3


def test_512_gpu_localisation(report):
    mesh = DeviceMesh(ParallelConfig(tp=8, cp=2, pp=4, dp=8))
    rng = np.random.default_rng(0)
    victims = rng.choice(mesh.world_size, size=5, replace=False)
    hits = 0
    for victim in victims:
        sim = run_synthetic_workload(
            mesh, WorkloadSpec(steps=2, layers=2),
            faults=FaultPlan((
                ComputeStraggler(rank=int(victim), extra_seconds=0.8),)),
        )
        rep = identify_slow_rank(sim, mesh)
        hits += rep.slow_rank == victim
    report.line()
    report.line(f"512-GPU 4D mesh: {hits}/5 injected faults localised "
                "exactly")
    assert hits == 5
