"""Unified observability: trace export, metrics, and run reports.

Every simulation in this repository ultimately produces either a
:class:`repro.sim.engine.Simulator` timeline or a report dataclass.  This
package turns both into inspectable artifacts:

* :mod:`repro.obs.trace` — serialize a timeline to Chrome/Perfetto
  ``trace_event`` JSON, openable in ``ui.perfetto.dev`` (the Section 6.1
  debugging workflow starts from exactly such traces).
* :mod:`repro.obs.metrics` — a counters/gauges/histograms registry the
  pipeline executor, CP all-gather path, FSDP emulator, and slow-rank
  debugger report into, with aggregation across (dp, pp, cp, tp) mesh
  group indices.
* :mod:`repro.obs.report` — stable-schema JSON renderings of planner,
  step, phase, imbalance, fault and run results (the ``--json`` CLI
  surface and the hook point for regression tracking).

The report layer depends on :mod:`repro.train`, which itself reports into
the metrics layer — so ``repro.obs.report`` names are loaded lazily here
(PEP 562) to keep ``from repro.obs.metrics import ...`` cycle-free for
the instrumented modules.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    pp_rank_map,
    record_simulator_metrics,
)
from repro.obs.trace import (
    assert_valid_trace,
    export_chrome_trace,
    merge_timelines,
    remap_ranks,
    trace_event_dicts,
    validate_trace,
)

_REPORT_NAMES = (
    "plan_report",
    "step_report",
    "step_group_metrics",
    "phases_report",
    "imbalance_report",
    "resilience_report",
    "render_json",
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "pp_rank_map",
    "record_simulator_metrics",
    "assert_valid_trace",
    "export_chrome_trace",
    "merge_timelines",
    "remap_ranks",
    "trace_event_dicts",
    "validate_trace",
    *_REPORT_NAMES,
]


def __getattr__(name: str):
    if name in _REPORT_NAMES:
        from repro.obs import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
