"""FROZEN reference comm-overlap accounting — the all-pairs sum, verbatim.

This module is the differential-testing oracle for
:func:`repro.obs.metrics.record_comm_overlap_metrics`.  It holds the
function (and its ``_merged_intervals`` helper) exactly as the
repository shipped it before the window search: every comm event is
summed against *every* merged compute interval of its rank, O(comm x
compute) per rank.  The code below the banner is copied unchanged; only
this header and the imports were added, and the ``hidden`` sum is an
explicit left-to-right loop, which keeps its Python 3.11 bits on 3.12 as
well.  Do NOT edit it to track the live code — its whole value is that it
does not move.
``tests/harness/test_overlap_differential.py`` runs both over randomized
and real step timelines and asserts every sample is bitwise equal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# repro.obs.metrics
# ----------------------------------------------------------------------

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


def record_comm_overlap_metrics(
    sim: Simulator,
    registry: Optional[MetricsRegistry] = None,
    rank_map: Optional[Dict[int, int]] = None,
) -> MetricsRegistry:
    """Per-stream overlapped-vs-exposed communication accounting.

    For every rank and comm stream, splits each ``comm``-kind event's span
    into the part covered by that rank's compute events (overlapped — the
    Section 7.3.1 goal state) and the remainder (exposed on the timeline,
    even if nothing explicitly waited on it).  Writes, labeled by (mapped)
    rank and stream:

    * ``comm.total_seconds`` — comm-event span time;
    * ``comm.overlapped_seconds`` — the part hidden under compute;
    * ``comm.exposed_seconds`` — the part outside any compute event.
    """
    registry = registry or MetricsRegistry()
    rank_map = rank_map or {}
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
        by_stream: Dict[str, Tuple[float, float]] = {}
        for event in sim.events_for(rank, kind="comm"):
            hidden = 0
            for cs, ce in compute:
                hidden = hidden + max(
                    0.0, min(event.end, ce) - max(event.start, cs))
            tot_s, ov_s = by_stream.get(event.stream, (0.0, 0.0))
            by_stream[event.stream] = (tot_s + event.duration, ov_s + hidden)
        label = rank_map.get(rank, rank)
        for stream, (tot_s, ov_s) in sorted(by_stream.items()):
            total.set(tot_s, rank=label, stream=stream)
            overlapped.set(ov_s, rank=label, stream=stream)
            exposed.set(tot_s - ov_s, rank=label, stream=stream)
    return registry
