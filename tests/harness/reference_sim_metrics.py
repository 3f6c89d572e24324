"""FROZEN reference step-time accounting — the event-path gauges, verbatim.

This module is the differential-testing oracle for
:func:`repro.obs.metrics.record_simulator_metrics`.  It holds that
function and its ``_rank_seconds`` helper exactly as they read a built
timeline (a :class:`~repro.sim.engine.Simulator`'s trace events) before
the gauges were written from the step's per-rank record
(:class:`repro.train.executor.PipelineRun`).  The code below is copied
unchanged; only this header and the imports were added.  Do NOT edit it
— its whole value is that it does not move.

Its busy and exposed-wait seconds are the record's, bit for bit.  Its
idle and bubble gauges use the old definition (makespan minus
compute-stream occupancy, over compute-kind busy) and its comm gauge the
old collective time; ``tests/harness/test_lazy_timeline.py`` compares
only busy and exposed wait against it.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.ordered_sum import ordered_sum
from repro.sim.engine import Simulator


def record_simulator_metrics(
    sim: Simulator,
    registry: Optional[MetricsRegistry] = None,
    rank_map: Optional[Dict[int, int]] = None,
) -> MetricsRegistry:
    """Distill a recorded timeline into per-rank step metrics.

    Writes, labeled by (mapped) rank:

    * ``sim.busy_seconds`` — compute-kind time on the compute stream;
    * ``sim.idle_seconds`` — makespan minus compute-stream occupancy (the
      PP bubble numerator);
    * ``sim.comm_seconds`` — synchronising-collective span time;
    * ``sim.exposed_comm_seconds`` — exposed communication (P2P waits,
      unhidden collectives);
    * ``sim.bubble_ratio`` — idle over busy, the paper's PP bubble metric.

    ``sim`` may also be an executed step graph
    (:class:`repro.train.executor.GraphExecution`): its ``rank_seconds``
    gives the same figures from the timing, without building the
    timeline.  ``rank_map`` translates simulator-local ranks (e.g. PP
    ranks in the step executor) to global mesh ranks before labeling.
    """
    registry = registry or MetricsRegistry()
    rank_map = rank_map or {}
    rank_seconds = getattr(sim, "rank_seconds", None)
    makespan, rows = (rank_seconds() if rank_seconds is not None
                      else _rank_seconds(sim))
    busy = registry.gauge("sim.busy_seconds", unit="s",
                          description="compute-stream busy time per rank")
    idle = registry.gauge("sim.idle_seconds", unit="s",
                          description="makespan minus compute-stream occupancy")
    comm = registry.gauge("sim.comm_seconds", unit="s",
                          description="collective span time per rank")
    exposed = registry.gauge(
        "sim.exposed_comm_seconds", unit="s",
        description="exposed communication time per rank")
    bubble = registry.gauge(
        "sim.bubble_ratio", unit="ratio",
        description="idle over busy on the compute stream")
    for rank, busy_s, occupied_s, comm_s, exposed_s in rows:
        label = rank_map.get(rank, rank)
        busy.set(busy_s, rank=label)
        idle.set(makespan - occupied_s, rank=label)
        comm.set(comm_s, rank=label)
        exposed.set(exposed_s, rank=label)
        bubble.set((makespan - occupied_s) / busy_s if busy_s > 0 else 0.0,
                   rank=label)
    return registry


def _rank_seconds(sim: Simulator):
    """``(makespan, [(rank, busy, occupied, comm, exposed seconds)])`` of
    every rank with events, as :func:`record_simulator_metrics` reads."""
    rows = []
    for rank in sorted({e.rank for e in sim.events}):
        busy_s = ordered_sum(
            e.duration
            for e in sim.events_for(rank, stream="compute", kind="compute"))
        occupied_s = sim.busy_time(rank, "compute")  # any kind on the stream
        comm_s = ordered_sum(
            e.duration for e in sim.events_for(rank, kind="comm"))
        exposed_s = ordered_sum(
            e.duration for e in sim.events_for(rank, kind="exposed_comm"))
        rows.append((rank, busy_s, occupied_s, comm_s, exposed_s))
    return sim.makespan(), rows
