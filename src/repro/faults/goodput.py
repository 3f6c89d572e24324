"""Goodput under faults: effective throughput vs. the healthy baseline.

The paper's resilience story (Section 6.1) is ultimately about goodput —
how much training throughput a fleet delivers while degraded, and how
fast the degradation is localised.  This module runs the same optimizer
step twice on the step-graph path — once healthy, once under a
:class:`~repro.faults.models.FaultPlan` — and reports:

* effective tokens/s and MFU under faults vs. healthy (the goodput
  fraction);
* the exposed-communication delta per stream (which stream the fault's
  cost actually surfaced on, after overlap had its chance to hide it);
* the Section 6.1 detection outcome on the synthetic-workload side
  (:func:`repro.faults.detect.score_detection`), so one report carries
  both "how much it hurt" and "would we have found it".

``repro faults --json`` serializes this via
:func:`repro.obs.report.faults_report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.faults.detect import DetectionScore, score_detection
from repro.faults.inject import InjectionReport
from repro.faults.models import FaultPlan
from repro.hardware.cluster import ClusterSpec
from repro.model.config import TextModelConfig
from repro.obs.metrics import MetricsRegistry, record_comm_overlap_metrics
from repro.parallel.config import JobConfig, ParallelConfig
from repro.parallel.mesh import DeviceMesh
from repro.sim.engine import Simulator
from repro.train.step import StepReport, simulate_step

#: Above this world size the synthetic-workload detection pass is skipped:
#: it simulates every global rank (the step graph only simulates one
#: pipeline), so its cost scales with the fleet, not with pp.
DETECTION_WORLD_LIMIT = 512


def exposed_comm_by_stream(sim: Simulator) -> Dict[str, float]:
    """Exposed communication seconds per stream, summed over ranks.

    Per-stream ``comm``-kind exposure comes from the overlap accounting
    (:func:`repro.obs.metrics.record_comm_overlap_metrics` — the part of
    each collective outside any compute event); synthesized
    ``exposed_comm`` waits (P2P input gaps) are added under their own
    stream (``"wait"`` on the step-graph path).
    """
    registry = record_comm_overlap_metrics(sim)
    out: Dict[str, float] = {}
    if "comm.exposed_seconds" in registry:
        for labels, value in registry.get("comm.exposed_seconds").values.items():
            stream = dict(labels)["stream"]
            out[stream] = out.get(stream, 0.0) + value
    for event in sim.events:
        if event.kind == "exposed_comm":
            out[event.stream] = out.get(event.stream, 0.0) + event.duration
    return out


@dataclass(frozen=True)
class GoodputReport:
    """Healthy-vs-faulted comparison of one simulated step."""

    plan: FaultPlan
    healthy: StepReport
    faulted: StepReport
    injection: InjectionReport
    healthy_exposed_by_stream: Dict[str, float]
    faulted_exposed_by_stream: Dict[str, float]
    #: Detection outcome on the synthetic-workload side; None when
    #: skipped (``detect=False`` or the fleet exceeds the world limit).
    detection: Optional[DetectionScore] = None

    @property
    def goodput_fraction(self) -> float:
        """Faulted over healthy tokens/s — 1.0 means the fault was free."""
        healthy = self.healthy.tokens_per_second
        return self.faulted.tokens_per_second / healthy if healthy else 0.0

    @property
    def step_time_inflation(self) -> float:
        """Faulted over healthy step time (>= 1.0 for slowdown faults)."""
        if self.healthy.step_seconds <= 0:
            return 0.0
        return self.faulted.step_seconds / self.healthy.step_seconds

    @property
    def exposed_comm_delta_seconds(self) -> Dict[str, float]:
        """Per-stream exposed-comm change, faulted minus healthy."""
        streams = set(self.healthy_exposed_by_stream)
        streams.update(self.faulted_exposed_by_stream)
        return {
            s: (self.faulted_exposed_by_stream.get(s, 0.0)
                - self.healthy_exposed_by_stream.get(s, 0.0))
            for s in sorted(streams)
        }


def run_goodput(
    model: TextModelConfig,
    parallel: ParallelConfig,
    job: JobConfig,
    cluster: ClusterSpec,
    plan: FaultPlan,
    schedule_kind: str = "flexible",
    detect: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> GoodputReport:
    """Simulate one step healthy and faulted, and score detection.

    Args:
        plan: The faults to inject (must be non-empty).
        schedule_kind: Pipeline schedule for both runs.
        detect: Run the Section 6.1 localisation loop on the default
            synthetic workload (the step graph itself has no
            per-global-rank trace); skipped anyway above
            :data:`DETECTION_WORLD_LIMIT` global ranks.
        metrics: Registry the faulted step and the detection walk report
            into (step gauges, ``faults.injected_ops``, decision events).

    Both step timelines stay readable afterwards as ``healthy.run.sim``
    and ``faulted.run.sim`` (``repro faults --trace`` exports the
    faulted one).
    """
    if not len(plan):
        raise ValueError("goodput comparison needs a non-empty fault plan")
    mesh = DeviceMesh(parallel)
    plan.validate(mesh)
    healthy = simulate_step(
        model, parallel, job, cluster, schedule_kind=schedule_kind)
    faulted = simulate_step(
        model, parallel, job, cluster, schedule_kind=schedule_kind,
        metrics=metrics, fault_plan=plan)
    assert faulted.fault_injection is not None

    detection: Optional[DetectionScore] = None
    if detect and mesh.world_size <= DETECTION_WORLD_LIMIT:
        detection, _ = score_detection(mesh, plan, metrics=metrics)

    report = GoodputReport(
        plan=plan,
        healthy=healthy,
        faulted=faulted,
        injection=faulted.fault_injection,
        healthy_exposed_by_stream=exposed_comm_by_stream(healthy.run.sim),
        faulted_exposed_by_stream=exposed_comm_by_stream(faulted.run.sim),
        detection=detection,
    )
    if metrics is not None:
        gauges = metrics.gauge(
            "faults.goodput", unit="ratio",
            description="faulted-over-healthy throughput ratios")
        gauges.set(report.goodput_fraction, part="tokens_per_second")
        gauges.set(report.step_time_inflation, part="step_time")
    return report


__all__ = [
    "DETECTION_WORLD_LIMIT",
    "GoodputReport",
    "exposed_comm_by_stream",
    "run_goodput",
]
