"""Fast-path engine benchmarks: host throughput of :mod:`repro.sim.engine`.

Two measurements:

1. **131K-rank collectives** — full-world synchronizing collectives at
   the paper's headline scale (128 * 1024 ranks), submitted through
   :func:`repro.debug.workload.join_collective` (per-rank joins read
   with ``now``, events appended with ``record``), at a pinned
   events/sec floor.
2. **Zero-bubble build+execute** — the split-backward schedule at the
   acceptance shape (16 stages x 64 microbatches), built by the schedule
   registry and executed through the BI/BW lowering.

Engine-vs-reference correctness is pinned bitwise elsewhere, by the
differential harness (``tests/harness/test_differential.py``) and the
engine fuzz campaign (``repro verify --engine``).

The human-readable results file holds only simulated columns, so it is
the same on every host; the host timings (events/sec, seconds) go only
to ``benchmarks/results/BENCH_engine.json``, for the CI ``engine-bench``
job to upload.  The pinned floor below fails the job on a regression.
"""

import json
import pathlib
import time

from repro.debug.workload import join_collective
from repro.sim.engine import Simulator

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_engine.json"
_BENCH: dict = {}

#: The acceptance workload shape: 16 pipeline stages x 64 microbatches.
PP, NMB = 16, 64

#: Pinned floor (events/sec; generous vs observed local rates so cold
#: CI runners pass, tight enough that a per-rank slow path fails).
FLOOR_COLLECTIVE_EPS = 150_000.0


def test_131k_rank_collectives(report):
    world = 131_072
    rounds = 4
    ranks = list(range(world))
    sim = Simulator()
    # One late joiner on the first round: rank 7's stream is busy when
    # the first collective starts, so the whole world waits for it.
    sim.run(7, "dp", 1e-4, "late")
    t0 = time.perf_counter()
    for i in range(rounds):
        join_collective(sim, ranks, "dp", 0.01, f"ar{i}")
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
    report.table(["world", "events"], [(f"{world:,}", f"{n_events:,}")])
    report.line()

    assert len(sim.events) == n_events + 1  # plus the late joiner
    assert sim.makespan() > 0.04  # four chained 0.01 s rounds
    assert sim.events[1].end == 1e-4 + 0.01  # round 0 waited for rank 7
    assert eps >= FLOOR_COLLECTIVE_EPS, (
        f"{eps:,.0f} events/sec at 131K ranks "
        f"(floor {FLOOR_COLLECTIVE_EPS:,.0f})")


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
    # The timeline is built on first read: read it inside the timer.
    n_events = len(run.sim.events)
    exec_elapsed = time.perf_counter() - t0
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
        ["ops", "events", "bubble"],
        [(f"{n_ops:,}", f"{n_events:,}", f"{run.mean_bubble_ratio:.3f}")],
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
