"""Fault injection and resilience scoring (the Section 6.1 loop).

Declarative fault models (:mod:`repro.faults.models`) perturb durations
through one applier with two call sites: the synthetic 5D workload
(:mod:`repro.debug.workload`) and the lowered step graph, via a graph
rewrite (:mod:`repro.faults.inject`).  The loop closes in
:mod:`repro.faults.detect` (does the top-down search find what was
injected?) and :mod:`repro.faults.goodput` (what did the fault cost in
tokens/s, MFU, and exposed communication?).  See ``docs/faults.md``.
"""

from repro.faults.models import (
    FAULT_PRESETS,
    CollectiveRetry,
    ComputeStraggler,
    DegradedLink,
    FaultPlan,
    HotExpert,
    HungRank,
    PeriodicJitter,
    fault_preset,
    parse_fault_spec,
)
from repro.faults.inject import InjectionReport, apply_fault_plan
from repro.faults.detect import DetectionScore, score_detection
from repro.faults.goodput import (
    DETECTION_WORLD_LIMIT,
    GoodputReport,
    exposed_comm_by_stream,
    run_goodput,
)

__all__ = [
    "FAULT_PRESETS",
    "fault_preset",
    "CollectiveRetry",
    "ComputeStraggler",
    "DegradedLink",
    "FaultPlan",
    "HotExpert",
    "HungRank",
    "PeriodicJitter",
    "parse_fault_spec",
    "InjectionReport",
    "apply_fault_plan",
    "DetectionScore",
    "score_detection",
    "DETECTION_WORLD_LIMIT",
    "GoodputReport",
    "exposed_comm_by_stream",
    "run_goodput",
]
