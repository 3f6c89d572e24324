"""Fast-path engine benchmarks: the scaling claim behind the simulator.

Three measurements back the fast-path rewrite of :mod:`repro.sim.engine`
(frozen pre-rewrite engine kept in ``tests/harness/reference_engine.py``):

1. **Differential throughput** on the acceptance workload — a 16-stage x
   64-microbatch pipeline replicated over 8 data-parallel replicas.  The
   reference engine replays every replica explicitly; the fast engine
   replays one replica under ``RankFold(replicas=8)`` and fans out
   lazily.  Same fanned-out timeline (asserted bitwise on the
   aggregates), >= 10x the events/sec.
2. **131K-rank collectives** — full-world synchronizing collectives at
   the paper's headline scale (128 * 1024 ranks) at a pinned events/sec
   floor, exercising the batched per-rank cost evaluation.
3. **131K-rank folded step** — the same pipeline folded 8192-ways to the
   131K-rank world: effective (fanned) event throughput with O(1)
   makespan/busy inspection.

Besides the human-readable results file, writes
``benchmarks/results/BENCH_engine.json`` (events/sec, speedup, peak RSS)
for the CI ``engine-bench`` job to upload; the pinned floors below fail
the job on a regression.
"""

import json
import pathlib
import resource
import time

from repro.sim.engine import RankFold, Simulator
from tests.harness.reference_engine import ReferenceSimulator

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_engine.json"
_BENCH: dict = {}

#: The acceptance workload shape: 16 pipeline stages x 64 microbatches.
PP, NMB = 16, 64
#: Data-parallel replicas the differential benchmark fans out over.
REPLICAS = 8

#: Pinned floors (events/sec; generous vs observed local rates so cold
#: CI runners pass, tight enough that losing an optimisation layer —
#: incremental accounting, folding, batched collectives — fails).
FLOOR_SPEEDUP = 10.0
FLOOR_FANNED_EPS = 300_000.0
FLOOR_COLLECTIVE_EPS = 150_000.0
FLOOR_FOLDED_EPS = 10_000_000.0


def submit_pipeline(sim, offset: int = 0) -> int:
    """One replica's 16-stage x 64-microbatch step at rank ``offset``.

    Forward/backward chains over the stages via dependencies, a grad
    collective every 8 microbatches — the event mix the train lowering
    produces, without the lowering overhead masking engine time.
    Returns the number of events submitted.
    """
    ranks = list(range(offset, offset + PP))
    fwd = {}
    for mb in range(NMB):
        dep = None
        for s in range(PP):
            dep = sim.run(offset + s, "compute", 0.004, f"F{mb}.{s}",
                          after=[dep] if dep is not None else None)
            fwd[(mb, s)] = dep
    n_coll = 0
    for mb in range(NMB):
        dep = None
        for s in reversed(range(PP)):
            after = [fwd[(mb, s)]]
            if dep is not None:
                after.append(dep)
            dep = sim.run(offset + s, "compute", 0.008, f"B{mb}.{s}",
                          after=after)
        if (mb + 1) % 8 == 0:
            sim.run_collective(ranks, "fsdp", 0.002, f"gs{mb}")
            n_coll += 1
    sim.run_collective(ranks, "fsdp", 0.003, "final")
    n_coll += 1
    return PP * NMB * 2 + n_coll * PP


def _inspection_battery(sim, world: int) -> float:
    """Every per-rank aggregate a dashboard would pull — O(1) on the
    fast engine, O(events) scans on the reference."""
    total = sim.makespan()
    for rank in range(world):
        total += sim.makespan([rank])
        total += sim.busy_time(rank, "compute")
        total += sim.idle_time(rank, "compute")
        total += sim.now(rank, "fsdp")
    return total


def test_differential_throughput(report):
    world = REPLICAS * PP

    t0 = time.perf_counter()
    ref = ReferenceSimulator()
    for k in range(REPLICAS):
        submit_pipeline(ref, k * PP)
    ref_probe = _inspection_battery(ref, world)
    ref_elapsed = time.perf_counter() - t0
    n_events = len(ref.events)

    t0 = time.perf_counter()
    fast = Simulator(fold=RankFold(replicas=REPLICAS, stride=PP))
    submit_pipeline(fast, 0)
    fast_probe = _inspection_battery(fast, world)
    fast_elapsed = time.perf_counter() - t0

    # Same fanned-out timeline: aggregate parity is asserted here; the
    # per-field bitwise diff lives in tests/harness/test_differential.py.
    assert len(fast.events) == n_events
    assert fast.makespan() == ref.makespan()
    assert fast_probe == ref_probe

    ref_eps = n_events / ref_elapsed
    fast_eps = n_events / fast_elapsed
    speedup = fast_eps / ref_eps
    _BENCH["differential_16x64_dp8"] = {
        "pp": PP, "microbatches": NMB, "replicas": REPLICAS,
        "n_events": n_events,
        "reference_events_per_second": round(ref_eps),
        "fast_events_per_second": round(fast_eps),
        "speedup": round(speedup, 2),
        "floor_speedup": FLOOR_SPEEDUP,
        "floor_fast_events_per_second": FLOOR_FANNED_EPS,
    }
    report.line("Differential throughput: 16-stage x 64-microbatch "
                f"pipeline, {REPLICAS} DP replicas ({world} ranks)")
    report.table(
        ["engine", "events", "elapsed s", "events/sec"],
        [("reference (explicit)", f"{n_events:,}", f"{ref_elapsed:.3f}",
          f"{ref_eps:,.0f}"),
         (f"fast (fold={REPLICAS})", f"{n_events:,}",
          f"{fast_elapsed:.3f}", f"{fast_eps:,.0f}")],
    )
    report.line(f"speedup: {speedup:.1f}x (floor {FLOOR_SPEEDUP:.0f}x)")
    report.line()

    assert speedup >= FLOOR_SPEEDUP, (
        f"fast engine is only {speedup:.1f}x the reference on the "
        f"acceptance workload (floor {FLOOR_SPEEDUP:.0f}x)")
    assert fast_eps >= FLOOR_FANNED_EPS


def test_131k_rank_collectives(report):
    world = 131_072
    rounds = 4
    ranks = list(range(world))
    sim = Simulator()
    # One late joiner on the first round exercises the dependency path.
    late = {7: [sim.run(7, "compute", 1e-4, "late")]}
    t0 = time.perf_counter()
    for i in range(rounds):
        sim.run_collective(ranks, "dp", 0.01, f"ar{i}",
                           after=late if i == 0 else None)
    elapsed = time.perf_counter() - t0
    n_events = world * rounds
    eps = n_events / elapsed

    _BENCH["collectives_131k"] = {
        "world": world, "rounds": rounds,
        "n_events": n_events,
        "events_per_second": round(eps),
        "elapsed_seconds": round(elapsed, 3),
        "floor_events_per_second": FLOOR_COLLECTIVE_EPS,
    }
    report.line(f"131K-rank collectives: {rounds} full-world rounds")
    report.table(
        ["world", "events", "elapsed s", "events/sec"],
        [(f"{world:,}", f"{n_events:,}", f"{elapsed:.2f}",
          f"{eps:,.0f}")],
    )
    report.line()

    assert len(sim.events) == n_events + 1  # plus the late joiner
    assert sim.makespan() > 0.04  # four chained 0.01 s rounds
    assert eps >= FLOOR_COLLECTIVE_EPS, (
        f"{eps:,.0f} events/sec at 131K ranks "
        f"(floor {FLOOR_COLLECTIVE_EPS:,.0f})")


def test_131k_rank_folded_step(report):
    replicas = 131_072 // PP  # 8192 DP replicas of the 16-stage pipeline
    sim = Simulator(fold=RankFold(replicas=replicas, stride=PP))
    t0 = time.perf_counter()
    base_events = submit_pipeline(sim, 0)
    makespan = sim.makespan()
    # Stage-0 ranks of four replicas: the fold symmetry is across
    # replicas (same stage), so these must answer identically.
    probes = [(r, sim.busy_time(r, "compute"), len(sim.events_for(r)))
              for r in (0, PP, 65_536, 131_056)]
    elapsed = time.perf_counter() - t0
    effective = base_events * replicas
    eps = effective / elapsed

    _BENCH["folded_step_131k"] = {
        "world": replicas * PP, "replicas": replicas,
        "base_events": base_events,
        "effective_events": effective,
        "effective_events_per_second": round(eps),
        "elapsed_seconds": round(elapsed, 3),
        "floor_effective_events_per_second": FLOOR_FOLDED_EPS,
        "ru_maxrss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    report.line(f"131K-rank folded step: {replicas:,} replicas x "
                f"{base_events:,} events, submitted once")
    report.table(
        ["world", "effective events", "elapsed s", "events/sec"],
        [(f"{replicas * PP:,}", f"{effective:,}", f"{elapsed:.3f}",
          f"{eps:,.0f}")],
    )
    report.line()

    assert makespan > 0
    # Every replica answers identically (symmetry is the fold contract).
    assert probes[0][1:] == probes[1][1:] == probes[2][1:] == probes[3][1:]
    assert probes[0][2] == base_events // PP
    assert eps >= FLOOR_FOLDED_EPS


def test_zero_bubble_16x64(report):
    """Build + execute the split-backward zero-bubble schedule at the
    acceptance shape (16 stages x 64 microbatches): schedule-registry
    builders and the BI/BW lowering must not erode engine throughput."""
    from repro.pp.layout import build_layout
    from repro.pp.registry import schedule_entry
    from repro.pp.schedule import ScheduleShape
    from repro.train.cost import StageCost
    from repro.train.executor import execute_pipeline

    shape = ScheduleShape(pp=PP, v=1, nc=PP, nmb=NMB)
    t0 = time.perf_counter()
    schedule = schedule_entry("zero-bubble").builder(shape)
    build_elapsed = time.perf_counter() - t0

    layout = build_layout(n_layers=PP, pp=PP, v=1)
    t0 = time.perf_counter()
    run = execute_pipeline(
        schedule, layout,
        forward_cost=lambda s: StageCost(0.004 * s.n_layers, 0.0, 0.0),
        backward_cost=lambda s: StageCost(0.008 * s.n_layers, 0.0, 0.0),
        p2p_seconds=0.0003,
    )
    exec_elapsed = time.perf_counter() - t0
    n_events = len(run.sim.events)
    n_ops = sum(len(p) for p in schedule.programs)
    eps = n_events / exec_elapsed

    _BENCH["zero_bubble_16x64"] = {
        "pp": PP, "microbatches": NMB,
        "n_ops": n_ops, "n_events": n_events,
        "build_seconds": round(build_elapsed, 4),
        "execute_seconds": round(exec_elapsed, 4),
        "events_per_second": round(eps),
        "mean_bubble_ratio": round(run.mean_bubble_ratio, 4),
    }
    report.line("Zero-bubble build+execute: 16-stage x 64-microbatch "
                "split-backward schedule")
    report.table(
        ["ops", "events", "build s", "execute s", "events/sec", "bubble"],
        [(f"{n_ops:,}", f"{n_events:,}", f"{build_elapsed:.4f}",
          f"{exec_elapsed:.4f}", f"{eps:,.0f}",
          f"{run.mean_bubble_ratio:.3f}")],
    )
    report.line()

    # F + BI + BW per (stage, microbatch): the split must be explicit.
    assert n_ops == PP * NMB * 3
    assert run.mean_bubble_ratio < 0.2  # fills the 1F1B drain at nmb=4*pp


def test_write_bench_json(report):
    """Persist machine-readable results for the CI artifact upload.

    Runs last (file order) so earlier tests have populated _BENCH."""
    assert _BENCH, "benchmark sections did not run"
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_JSON.write_text(
        json.dumps(_BENCH, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    report.line(f"machine-readable results -> {BENCH_JSON.name}")
