"""Expert-parallelism smoke benchmarks: the MoE all-to-all at scale.

Two measurements back the EP path (see docs/moe.md):

1. **131K-rank all-to-all rounds** — the full world partitioned into
   EP groups of 8, every group running its dispatch/combine pair on the
   dedicated ``ep`` stream through
   :func:`repro.debug.workload.join_collective`, at a pinned events/sec
   floor.  Exercises the per-rank collective accounting across many
   small groups (the EP shape) rather than one world-spanning group.
2. **EP step** — a full MoE ``simulate_step`` at the paper's headline
   scale (131,072 ranks): the step graph carries one program per
   pipeline rank, the EP all-to-alls land on their own stream, and the
   wall-clock stays interactive.

The human-readable results file holds only simulated columns; the host
timings (events/sec, elapsed) go only to
``benchmarks/results/BENCH_ep.json``, with the step numbers, for the CI
``ep-smoke`` job to upload.  The pinned floors fail the job on a
regression.
"""

import json
import pathlib
import time

from repro.debug.workload import join_collective
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.parallel.config import JobConfig, ParallelConfig
from repro.sim.engine import Simulator
from repro.train.step import simulate_step

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_ep.json"
_BENCH: dict = {}

WORLD = 131_072
EP = 8

#: Pinned floors/ceilings (generous vs observed local rates so cold CI
#: runners pass, tight enough that a per-rank slow path fails).
FLOOR_A2A_EPS = 100_000.0
CEIL_STEP_SECONDS = 20.0


def test_131k_rank_all_to_all(report):
    """Dispatch + combine for every EP group in a 131K-rank world."""
    rounds = 2  # one dispatch + one combine
    sim = Simulator()
    t0 = time.perf_counter()
    for tag in ("dispatch", "combine"):
        for g0 in range(0, WORLD, EP):
            join_collective(sim, range(g0, g0 + EP), "ep", 0.002,
                            f"ep:{tag}:{g0}")
    elapsed = time.perf_counter() - t0
    n_events = WORLD * rounds
    eps = n_events / elapsed

    _BENCH["all_to_all_131k"] = {
        "world": WORLD, "ep": EP, "groups": WORLD // EP,
        "rounds": rounds, "n_events": n_events,
        "events_per_second": round(eps),
        "elapsed_seconds": round(elapsed, 3),
        "floor_events_per_second": FLOOR_A2A_EPS,
    }
    report.line(f"131K-rank EP all-to-all: {WORLD // EP:,} groups of "
                f"{EP}, dispatch + combine")
    report.table(
        ["world", "groups", "events"],
        [(f"{WORLD:,}", f"{WORLD // EP:,}", f"{n_events:,}")],
    )
    report.line()

    assert len(sim.events) == n_events
    assert eps >= FLOOR_A2A_EPS, (
        f"{eps:,.0f} EP-collective events/sec at 131K ranks "
        f"(floor {FLOOR_A2A_EPS:,.0f})")


def test_ep_step_131k(report):
    """End-to-end MoE step at 131,072 ranks."""
    model = LLAMA3_8B.moe_variant(EP)
    par = ParallelConfig(tp=2, cp=1, ep=EP, pp=16,
                         dp=WORLD // (2 * EP * 16))
    job = JobConfig(seq=4096, gbs=par.dp * EP * 8, ngpu=WORLD)

    t0 = time.perf_counter()
    rep = simulate_step(model, par, job, grand_teton(WORLD))
    # The timeline is built on first read: read it inside the timer.
    events = rep.execution.sim.events
    elapsed = time.perf_counter() - t0
    ep_events = [e for e in events if e.stream == "ep"]

    _BENCH["ep_step_131k"] = {
        "world": WORLD, "parallel": par.describe(),
        "n_events": len(events),
        "n_ep_events": len(ep_events),
        "elapsed_seconds": round(elapsed, 3),
        "step_seconds": round(rep.step_seconds, 4),
        "tflops_per_gpu": round(rep.tflops_per_gpu, 1),
        "dropped_token_fraction": rep.dropped_token_fraction,
        "ceil_elapsed_seconds": CEIL_STEP_SECONDS,
    }
    report.line(f"EP step: {model.name} on {WORLD:,} ranks "
                f"({par.describe()})")
    report.table(
        ["events", "ep events", "step s", "TFLOPs/GPU"],
        [(f"{len(events):,}", f"{len(ep_events):,}",
          f"{rep.step_seconds:.3f}", f"{rep.tflops_per_gpu:.0f}")],
    )
    report.line()

    assert ep_events, "no events landed on the ep stream"
    assert any(e.name.startswith("ep:dispatch:") for e in ep_events)
    assert any(e.name.startswith("ep:combine:") for e in ep_events)
    assert rep.step_seconds > 0 and rep.tflops_per_gpu > 0
    assert elapsed <= CEIL_STEP_SECONDS, (
        f"131K-rank MoE step took {elapsed:.1f}s to simulate "
        f"(ceiling {CEIL_STEP_SECONDS:.0f}s)")


def test_write_bench_json(report):
    """Persist machine-readable results for the CI artifact upload.

    Runs last (file order) so earlier tests have populated _BENCH."""
    assert _BENCH, "benchmark sections did not run"
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_JSON.write_text(
        json.dumps(_BENCH, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    report.line(f"machine-readable results -> {BENCH_JSON.name}")
