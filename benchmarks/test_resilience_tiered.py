"""Tiered-checkpointing resilience at the paper's headline scale.

Simulates the full detect/restore machinery — correlated failure
domains, three checkpoint tiers, elastic accounting — on a 131K-rank
(128 * 1024) Llama 3 405B run.  The run simulator prices segments with
the folded fast-path engine, so a 100-step fleet simulation at 131K
ranks is sub-second; the pinned events/sec floor fails the CI job if
the tiered bookkeeping ever turns per-step work into per-rank work.

The human-readable results file holds only simulated columns; the host
timings (wall seconds, events/sec) go only to
``benchmarks/results/BENCH_resilience_tiered.json``, for the CI
``resilience-smoke`` job to upload.
"""

import json
import pathlib
import time

from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_405B
from repro.parallel.config import JobConfig
from repro.resilience import (
    TAXONOMY_PRESETS,
    RunConfig,
    YoungDaly,
    parse_policy,
    simulate_run,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_resilience_tiered.json"
_BENCH: dict = {}

MODEL = LLAMA3_405B
WORLD = 131_072
JOB = JobConfig(seq=8192, gbs=2048, ngpu=WORLD)
CLUSTER = grand_teton(WORLD)
STEPS = 100

#: Conservative floor (observed locally ~1,000 timeline events/sec,
#: dominated by the two folded 131K-rank step pricings).
FLOOR_EVENTS_PER_SECOND = 100.0


def _config(policy, **overrides):
    base = dict(steps=STEPS, mtbf_seconds=600.0, seed=3, elastic=False,
                replacement_seconds=300.0,
                taxonomy=TAXONOMY_PRESETS["rack-correlated"])
    base.update(overrides)
    return RunConfig(policy=policy, **base)


def test_131k_tiered_run(report):
    t0 = time.perf_counter()
    r = simulate_run(MODEL, JOB, CLUSTER,
                     _config(parse_policy("tiered:auto")))
    elapsed = time.perf_counter() - t0
    n_events = len(r.sim.events)
    eps = n_events / elapsed
    steps_per_second = r.counters["steps_attempted"] / elapsed

    _BENCH["tiered_131k"] = {
        "world": WORLD, "steps": STEPS,
        "step_seconds": round(r.segments[0]["step_seconds"], 4),
        "n_timeline_events": n_events,
        "wall_seconds": round(elapsed, 3),
        "events_per_second": round(eps),
        "steps_per_second": round(steps_per_second, 1),
        "tier_writes": dict(r.tier_writes),
        "tier_intervals": dict(r.tier_intervals),
        "goodput_fraction": round(r.goodput_fraction, 6),
        "floor_events_per_second": FLOOR_EVENTS_PER_SECOND,
    }
    report.line(f"131K-rank tiered resilient run: {STEPS} steps of 405B "
                f"on {WORLD:,} GPUs, rack-correlated taxonomy")
    report.table(
        ["world", "steps", "timeline events"],
        [(f"{WORLD:,}", STEPS, n_events)],
    )
    report.line(f"tier writes: {r.tier_writes}  "
                f"intervals: {r.tier_intervals}")
    report.line()

    assert r.completed
    assert r.counters["restarts"] >= 1
    assert r.tier_writes["peer"] >= r.tier_writes["remote"] >= 1
    assert eps >= FLOOR_EVENTS_PER_SECOND, (
        f"{eps:,.0f} timeline events/sec at 131K ranks "
        f"(floor {FLOOR_EVENTS_PER_SECOND:,.0f})")


def test_131k_tiered_vs_remote_only(report):
    tiered = simulate_run(MODEL, JOB, CLUSTER,
                          _config(parse_policy("tiered:auto")))
    remote = simulate_run(MODEL, JOB, CLUSTER, _config(YoungDaly()))

    # Same seed, same failure arrivals (the fixed-draw contract), so
    # the goodput delta is attributable to the checkpoint hierarchy.
    shared = min(len(tiered.failures), len(remote.failures))
    assert shared >= 1
    assert [f["time_seconds"] for f in tiered.failures[:shared]] \
        == [f["time_seconds"] for f in remote.failures[:shared]]

    _BENCH["tiered_vs_remote_131k"] = {
        "tiered_goodput": round(tiered.goodput_fraction, 6),
        "remote_only_goodput": round(remote.goodput_fraction, 6),
        "tiered_checkpoint_seconds": round(
            tiered.buckets["checkpoint"], 3),
        "remote_checkpoint_seconds": round(
            remote.buckets["checkpoint"], 3),
    }
    report.line("Tiered vs remote-only Young/Daly at 131K ranks "
                "(same seed, same failures)")
    report.table(
        ["policy", "goodput", "checkpoint s", "restart s"],
        [("tiered:auto", f"{tiered.goodput_fraction:.4f}",
          f"{tiered.buckets['checkpoint']:.1f}",
          f"{tiered.buckets['restart']:.1f}"),
         ("young-daly (remote)", f"{remote.goodput_fraction:.4f}",
          f"{remote.buckets['checkpoint']:.1f}",
          f"{remote.buckets['restart']:.1f}")],
    )
    report.line()

    assert tiered.completed and remote.completed


def test_write_bench_json(report):
    """Persist machine-readable results for the CI artifact upload.

    Runs last (file order) so earlier tests have populated _BENCH."""
    assert _BENCH, "benchmark sections did not run"
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_JSON.write_text(
        json.dumps(_BENCH, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    report.line(f"machine-readable results -> {BENCH_JSON.name}")
