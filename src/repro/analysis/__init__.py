"""Trace analytics: turn raw timelines into answers.

Three pillars over the observability spine (Perfetto export, step event
graphs, fault tags, run timelines):

* :mod:`repro.analysis.critical_path` — which op chain bounds the step,
  exactly, plus per-op slack for the near-critical set.
* :mod:`repro.analysis.diff` — run-vs-run alignment with automatic
  regression blame by (kind, stream, pipeline stage).
* :mod:`repro.analysis.streaming` — constant-memory ingestion and
  aggregation of million-event traces.

All three surface through the ``repro analyze`` CLI subcommand with the
``repro.analysis/v1`` JSON schema.
"""

from repro.analysis.critical_path import (
    CriticalPathReport,
    PathEntry,
    extract_critical_path,
)
from repro.analysis.diff import (
    ALIGN_KINDS,
    DiffBucket,
    OpDelta,
    TraceDiff,
    diff_traces,
)
from repro.analysis.streaming import (
    LightEvent,
    StreamingTraceAggregator,
    iter_trace_events,
)

__all__ = [
    "CriticalPathReport",
    "PathEntry",
    "extract_critical_path",
    "ALIGN_KINDS",
    "DiffBucket",
    "OpDelta",
    "TraceDiff",
    "diff_traces",
    "LightEvent",
    "StreamingTraceAggregator",
    "iter_trace_events",
]
