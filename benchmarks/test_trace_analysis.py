"""Streaming-ingestion and critical-path-extraction benchmarks (PR 6).

Two scaling claims behind the trace analytics subsystem:

1. The streaming aggregator ingests a **million-event** trace without
   materializing it: peak incremental heap stays under a fixed budget
   (O(streams + K), not O(events)) while sustaining a healthy event
   rate.
2. Critical-path extraction stays tractable on a deep pipeline — a
   16-stage x 64-microbatch step graph resolves in bounded wall time
   with the exact-tiling invariant intact.

The human-readable results file holds no host timing; events/sec and
elapsed seconds go only to ``benchmarks/results/BENCH_analysis.json``
(with the peak heap), for the CI ``analysis-smoke`` job to upload as an
artifact.
"""

import json
import pathlib
import time
import tracemalloc

from repro.analysis import StreamingTraceAggregator, extract_critical_path
from repro.analysis.streaming import LightEvent, iter_trace_events
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.parallel.config import JobConfig, ParallelConfig
from repro.train.step import simulate_step

N_EVENTS = 1_000_000
#: Peak *incremental* heap budget for the 1M-event ingest.  The
#: aggregator keeps ~dozens of per-(stream, kind) stat cells and a
#: top-K heap; 64 MiB is two orders of magnitude above that steady
#: state but two orders below materializing 1M event objects.
PEAK_BUDGET_BYTES = 64 * 1024 * 1024

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_analysis.json"
_BENCH: dict = {}


def _synthetic_events(n):
    """A generator of n events over a realistic stream/kind mix."""
    streams = (("compute", "compute"), ("tp", "comm"), ("fsdp", "comm"),
               ("p2p", "comm"), ("compute", "exposed_comm"))
    for i in range(n):
        stream, kind = streams[i % len(streams)]
        start = (i // 16) * 1e-3
        yield LightEvent(name=f"op:{i % 97}", kind=kind, rank=i % 64,
                         stream=stream, start=start,
                         end=start + 1e-4 + (i % 13) * 1e-5)


def test_million_event_ingest_bounded_memory(report):
    agg = StreamingTraceAggregator(top_k=10)
    tracemalloc.start()
    t0 = time.perf_counter()
    agg.consume(_synthetic_events(N_EVENTS))
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    rate = N_EVENTS / elapsed
    _BENCH["streaming_ingest"] = {
        "n_events": N_EVENTS,
        "events_per_second": round(rate),
        "elapsed_seconds": round(elapsed, 3),
        "tracemalloc_peak_bytes": peak,
        "peak_budget_bytes": PEAK_BUDGET_BYTES,
    }

    report.line("Streaming ingestion: 1M-event synthetic trace")
    report.table(
        ["events", "peak heap MiB", "budget MiB"],
        [(f"{N_EVENTS:,}", f"{peak / 2**20:.1f}",
          f"{PEAK_BUDGET_BYTES / 2**20:.0f}")],
    )
    report.line()

    assert agg.n_events == N_EVENTS
    assert agg.n_ranks == 64
    assert len(agg.top_slowest()) == 10
    assert peak < PEAK_BUDGET_BYTES, (
        f"ingest peaked at {peak / 2**20:.1f} MiB, "
        f"budget {PEAK_BUDGET_BYTES / 2**20:.0f} MiB — the aggregator "
        "is no longer O(streams + K)")


def test_file_ingest_does_not_materialize(report, tmp_path):
    """File-based ingestion parses incrementally: a trace much larger
    than the heap budget streams through it."""
    par = ParallelConfig(tp=2, cp=1, pp=2, dp=2)
    job = JobConfig(seq=8192, gbs=8, ngpu=8)
    rep = simulate_step(LLAMA3_8B, par, job, grand_teton(8))

    # Tile one step's rows into a single large traceEvents array.
    from repro.obs.trace import trace_event_dicts

    rows = trace_event_dicts(rep.run.sim)
    reps = max(1, 100_000 // len(rows))
    path = tmp_path / "big.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"traceEvents": [')
        first = True
        for r in range(reps):
            for row in rows:
                if row["ph"] != "X":
                    continue
                if not first:
                    fh.write(",")
                first = False
                fh.write(json.dumps(row))
        fh.write("]}")
    size_mb = path.stat().st_size / 2**20

    agg = StreamingTraceAggregator(top_k=5)
    tracemalloc.start()
    agg.consume(iter_trace_events(str(path)))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    n_x = sum(1 for row in rows if row["ph"] == "X") * reps
    _BENCH["file_ingest"] = {
        "file_mb": round(size_mb, 1),
        "n_events": n_x,
        "tracemalloc_peak_bytes": peak,
    }
    report.line(f"File ingest: {size_mb:.1f} MiB / {n_x:,} events, "
                f"peak heap {peak / 2**20:.1f} MiB")
    report.line()
    assert agg.n_events == n_x
    # Peak heap must stay far below the file size: streaming, not slurping.
    assert peak < max(8 * 2**20, path.stat().st_size / 4)


def test_critical_path_deep_pipeline_bounded_time(report):
    """16-stage x 64-microbatch step: extraction in bounded wall time."""
    par = ParallelConfig(tp=1, cp=1, pp=16, dp=1)
    job = JobConfig(seq=8192, gbs=64, ngpu=16)
    rep = simulate_step(LLAMA3_8B, par, job, grand_teton(16))

    t0 = time.perf_counter()
    cp = extract_critical_path(rep.execution.graph, rep.execution.events,
                               makespan=rep.step_seconds)
    elapsed = time.perf_counter() - t0

    n_events = len(rep.execution.events)
    _BENCH["critical_path"] = {
        "pp": 16, "microbatches": 64,
        "n_events": n_events,
        "path_ops": cp.n_ops,
        "exact": cp.exact,
        "elapsed_seconds": round(elapsed, 3),
    }
    report.line("Critical-path extraction: 16-stage x 64-microbatch step")
    report.table(
        ["graph events", "path ops", "exact"],
        [(f"{n_events:,}", cp.n_ops, cp.exact)],
    )
    report.line()

    assert cp.exact
    assert cp.entries[-1].end == rep.step_seconds
    # Extraction is near-linear in events; 10 s is an order of magnitude
    # above observed time on a cold CI runner.
    assert elapsed < 10.0, (
        f"critical-path extraction took {elapsed:.1f}s on "
        f"{n_events} events")


def test_write_bench_json(report):
    """Persist machine-readable results for the CI artifact upload.

    Runs last (file order) so earlier tests have populated _BENCH."""
    assert _BENCH, "benchmark sections did not run"
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_JSON.write_text(
        json.dumps(_BENCH, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    report.line(f"machine-readable results -> {BENCH_JSON.name}")
