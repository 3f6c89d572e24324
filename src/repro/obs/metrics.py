"""Step-metrics registry: counters, gauges, histograms, structured events.

The registry is the common sink the simulation paths report into — the
pipeline executor (ops, exposed P2P waits), the CP all-gather path
(collective counts and bytes), the FSDP emulator (collective counts,
resident bytes), and the slow-rank debugger (localisation decisions as
structured events).  Samples are labeled; the conventional label for
per-device series is ``rank``, which is what the mesh aggregation below
groups on.

Aggregation follows the paper's 4D structure: given a
:class:`repro.parallel.mesh.DeviceMesh`, any rank-labeled metric can be
rolled up per (dp, pp, cp, tp) group index — e.g. busy seconds per
pipeline stage, or exposed-comm seconds per DP group — which is exactly
the view the Section 6.1 top-down search walks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.ordered_sum import ordered_sum
from repro.parallel.config import ParallelConfig
from repro.parallel.mesh import DIM_ORDER, DeviceMesh, MeshCoord
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids a cycle)
    from repro.train.executor import PipelineRun

LabelSet = Tuple[Tuple[str, str], ...]


def pp_rank_map(parallel: ParallelConfig) -> Dict[int, int]:
    """Executor PP rank -> global mesh rank at (tp, cp, dp) = 0.

    The pipeline executor simulates one pipeline's ranks 0..pp-1; this maps
    them onto the full 4D mesh so mesh aggregation sees global ranks.
    """
    mesh = DeviceMesh(parallel)
    return {
        ppr: mesh.rank_of(MeshCoord(tp=0, cp=0, pp=ppr, dp=0))
        for ppr in range(parallel.pp)
    }


def _labelset(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class _Metric:
    """Shared shape of one named metric family."""

    name: str
    kind: str
    unit: str
    description: str


@dataclass
class Counter(_Metric):
    """Monotonically increasing sum per label set."""

    values: Dict[LabelSet, float] = field(default_factory=dict)

    def inc(self, value: float = 1.0, **labels: object) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = _labelset(labels)
        self.values[key] = self.values.get(key, 0.0) + value

    def value(self, **labels: object) -> float:
        return self.values.get(_labelset(labels), 0.0)


@dataclass
class Gauge(_Metric):
    """Last-written value per label set (with a max-tracking helper)."""

    values: Dict[LabelSet, float] = field(default_factory=dict)

    def set(self, value: float, **labels: object) -> None:
        self.values[_labelset(labels)] = float(value)

    def set_max(self, value: float, **labels: object) -> None:
        """Keep the running maximum — peak-memory style gauges."""
        key = _labelset(labels)
        self.values[key] = max(self.values.get(key, -math.inf), float(value))

    def value(self, **labels: object) -> float:
        key = _labelset(labels)
        if key not in self.values:
            raise KeyError(f"gauge {self.name!r} has no sample for {key}")
        return self.values[key]


@dataclass
class HistogramSummary:
    """Streaming summary of one label set's observations."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)


@dataclass
class Histogram(_Metric):
    """Count/sum/min/max summary per label set."""

    values: Dict[LabelSet, HistogramSummary] = field(default_factory=dict)

    def observe(self, value: float, **labels: object) -> None:
        key = _labelset(labels)
        if key not in self.values:
            self.values[key] = HistogramSummary()
        self.values[key].observe(float(value))

    def observe_many(self, values: Iterable[float], **labels: object) -> None:
        """:meth:`observe` each value in turn, under one label set."""
        key = _labelset(labels)
        summary = self.values.get(key)
        if summary is None:
            summary = self.values[key] = HistogramSummary()
        for value in values:
            summary.observe(float(value))


_REDUCERS: Dict[str, Callable[[List[float]], float]] = {
    "sum": ordered_sum,
    "max": max,
    "min": min,
    "mean": lambda xs: ordered_sum(xs) / len(xs),
}


class MetricsRegistry:
    """Named metric families plus an ordered structured-event log."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self.events: List[dict] = []

    # -- family constructors (get-or-create) ---------------------------

    def _get_or_create(self, cls, kind: str, name: str, unit: str,
                       description: str) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name=name, kind=kind, unit=unit, description=description)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, unit: str = "",
                description: str = "") -> Counter:
        return self._get_or_create(Counter, "counter", name, unit, description)

    def gauge(self, name: str, unit: str = "",
              description: str = "") -> Gauge:
        return self._get_or_create(Gauge, "gauge", name, unit, description)

    def histogram(self, name: str, unit: str = "",
                  description: str = "") -> Histogram:
        return self._get_or_create(Histogram, "histogram", name, unit,
                                   description)

    # -- structured events ---------------------------------------------

    def event(self, name: str, **fields: object) -> dict:
        """Append one structured event (e.g. a slow-rank decision)."""
        row = {"event": name, **fields}
        self.events.append(row)
        return row

    # -- inspection -----------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> _Metric:
        return self._metrics[name]

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # -- mesh aggregation -----------------------------------------------

    def aggregate_by_coord(
        self,
        name: str,
        mesh: DeviceMesh,
        dim: str,
        reduce: str = "sum",
    ) -> Dict[int, float]:
        """Roll a rank-labeled counter/gauge up per ``dim`` group index.

        Every sample must carry a ``rank`` label; a sample's value lands in
        the bucket of its rank's ``dim`` coordinate.  ``reduce`` is one of
        ``sum``/``max``/``min``/``mean``.
        """
        if dim not in DIM_ORDER:
            raise ValueError(f"unknown dim {dim!r}; expected one of {DIM_ORDER}")
        reducer = _REDUCERS.get(reduce)
        if reducer is None:
            raise ValueError(
                f"unknown reduce {reduce!r}; expected one of {sorted(_REDUCERS)}"
            )
        metric = self._metrics[name]
        if not isinstance(metric, (Counter, Gauge)):
            raise TypeError(f"cannot aggregate {metric.kind} {name!r}")
        buckets: Dict[int, List[float]] = {}
        for labels, value in metric.values.items():
            rank = dict(labels).get("rank")
            if rank is None:
                raise ValueError(
                    f"metric {name!r} sample {labels} has no 'rank' label"
                )
            idx = getattr(mesh.coord_of(int(rank)), dim)
            buckets.setdefault(idx, []).append(value)
        return {idx: reducer(vals) for idx, vals in sorted(buckets.items())}


def record_simulator_metrics(
    run: "PipelineRun",
    registry: Optional[MetricsRegistry] = None,
    rank_map: Optional[Dict[int, int]] = None,
) -> MetricsRegistry:
    """Write a step's per-rank time record as gauges.

    Writes, labeled by (mapped) rank, what
    :class:`repro.train.executor.PipelineRun` holds or derives:

    * ``sim.busy_seconds`` — compute seconds;
    * ``sim.idle_seconds`` — the pipeline window minus the rank's
      occupied time (compute plus TP/CP/EP communication);
    * ``sim.exposed_comm_seconds`` — exposed P2P wait seconds;
    * ``sim.bubble_ratio`` — idle over occupied, the paper's PP bubble
      metric.

    ``rank_map`` translates the run's PP ranks to global mesh ranks
    before labeling.
    """
    registry = registry or MetricsRegistry()
    rank_map = rank_map or {}
    busy = registry.gauge("sim.busy_seconds", unit="s",
                          description="compute-stream busy time per rank")
    idle = registry.gauge(
        "sim.idle_seconds", unit="s",
        description="pipeline window minus occupied time per rank")
    exposed = registry.gauge(
        "sim.exposed_comm_seconds", unit="s",
        description="exposed communication time per rank")
    bubble = registry.gauge(
        "sim.bubble_ratio", unit="ratio",
        description="idle over occupied time per rank")
    for rank, (busy_s, idle_s, ratio, comm) in enumerate(zip(
            run.per_rank_busy, run.per_rank_idle, run.bubble_ratios,
            run.per_rank_comm)):
        label = rank_map.get(rank, rank)
        busy.set(busy_s, rank=label)
        idle.set(idle_s, rank=label)
        exposed.set(comm.get("exposed_p2p", 0.0), rank=label)
        bubble.set(ratio, rank=label)
    return registry


def record_critical_path_metrics(
    report,
    registry: Optional[MetricsRegistry] = None,
    rank_map: Optional[Dict[int, int]] = None,
) -> MetricsRegistry:
    """Distill a critical-path report into planner-citable gauges.

    ``report`` is duck-typed (``entries`` with ``stream``/``kind``/
    ``rank``/``duration``, plus ``makespan_seconds``) so this module does
    not import :mod:`repro.analysis`.  Writes:

    * ``critical_path.makespan_seconds`` — the step time the path tiles;
    * ``critical_path.seconds`` — path time per stream;
    * ``critical_path.share`` — path share of the makespan per stream
      (the "how compute-bound is this config" number);
    * ``critical_path.ops`` — path op count per kind;
    * ``critical_path.rank_seconds`` — path time per (mapped) rank, the
      per-pipeline-stage view of where the step is bound.
    """
    registry = registry or MetricsRegistry()
    rank_map = rank_map or {}
    makespan = registry.gauge(
        "critical_path.makespan_seconds", unit="s",
        description="step makespan tiled by the critical path")
    seconds = registry.gauge(
        "critical_path.seconds", unit="s",
        description="critical-path time per stream")
    share = registry.gauge(
        "critical_path.share", unit="ratio",
        description="critical-path share of the makespan per stream")
    ops = registry.counter(
        "critical_path.ops", unit="ops",
        description="critical-path op count per kind")
    rank_seconds = registry.gauge(
        "critical_path.rank_seconds", unit="s",
        description="critical-path time per rank")
    by_stream: Dict[str, float] = {}
    by_rank: Dict[int, float] = {}
    for entry in report.entries:
        by_stream[entry.stream] = (
            by_stream.get(entry.stream, 0.0) + entry.duration)
        mapped = rank_map.get(entry.rank, entry.rank)
        by_rank[mapped] = by_rank.get(mapped, 0.0) + entry.duration
        ops.inc(1, kind=entry.kind)
    total = report.makespan_seconds
    makespan.set(total)
    for stream, value in sorted(by_stream.items()):
        seconds.set(value, stream=stream)
        share.set(value / total if total > 0 else 0.0, stream=stream)
    for rank, value in sorted(by_rank.items()):
        rank_seconds.set(value, rank=rank)
    return registry


def _merged_intervals(spans) -> List[Tuple[float, float]]:
    """Merge possibly-overlapping (start, end) spans into disjoint ones."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def record_comm_overlap_metrics(sim: Simulator) -> MetricsRegistry:
    """Per-stream overlapped-vs-exposed communication accounting.

    For every rank and comm stream, splits each ``comm``-kind event's span
    into the part covered by that rank's compute events (overlapped — the
    Section 7.3.1 goal state) and the remainder (exposed on the timeline,
    even if nothing explicitly waited on it).  Writes into a fresh
    registry, labeled by rank and stream:

    * ``comm.total_seconds`` — comm-event span time;
    * ``comm.overlapped_seconds`` — the part hidden under compute;
    * ``comm.exposed_seconds`` — the part outside any compute event.

    A rank's compute events are merged into sorted, disjoint intervals,
    so their ends ascend too.  Each comm event ``[start, end)`` sums its
    overlap only over the window from the first interval ending after
    ``start`` (a bisect on the ends) up to the first interval starting at
    or after ``end`` (a bisect on the starts).  Every interval outside
    that window contributes exactly ``+0.0``, so each sum is bitwise the
    all-pairs one, at O((comm + compute) log compute) per rank instead of
    O(comm x compute).
    """
    registry = MetricsRegistry()
    total = registry.gauge(
        "comm.total_seconds", unit="s",
        description="comm time per rank and stream")
    overlapped = registry.gauge(
        "comm.overlapped_seconds", unit="s",
        description="comm time hidden under compute, per rank and stream")
    exposed = registry.gauge(
        "comm.exposed_seconds", unit="s",
        description="comm time outside any compute event, per rank/stream")
    for rank in sorted({e.rank for e in sim.events}):
        compute = _merged_intervals(
            (e.start, e.end) for e in sim.events_for(rank, kind="compute"))
        starts = [cs for cs, _ in compute]
        ends = [ce for _, ce in compute]
        by_stream: Dict[str, Tuple[float, float]] = {}
        for event in sim.events_for(rank, kind="comm"):
            start, end = event.start, event.end
            window = compute[bisect_right(ends, start):
                             bisect_left(starts, end)]
            hidden = ordered_sum(
                max(0.0, min(end, ce) - max(start, cs))
                for cs, ce in window
            )
            tot_s, ov_s = by_stream.get(event.stream, (0.0, 0.0))
            by_stream[event.stream] = (tot_s + event.duration, ov_s + hidden)
        for stream, (tot_s, ov_s) in sorted(by_stream.items()):
            total.set(tot_s, rank=rank, stream=stream)
            overlapped.set(ov_s, rank=rank, stream=stream)
            exposed.set(tot_s - ov_s, rank=rank, stream=stream)
    return registry
