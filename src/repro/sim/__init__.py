"""Discrete-event performance simulator.

The simulator reproduces the *timing structure* of distributed training:
per-GPU compute and communication streams, point-to-point transfers with
dependencies, and synchronising collectives whose start time is gated by the
slowest participant.  Costs come from the analytical models in
:mod:`repro.hardware` and :mod:`repro.sim.collectives`.

The engine is deliberately small: callers (the pipeline executor in
:mod:`repro.train`, the CP attention benchmarks) submit tasks in any causally
consistent order and read back a trace of :class:`TraceEvent` records, which
the debugging tools in :mod:`repro.debug` then analyse exactly the way
Section 6.1 describes for production traces.
"""

from repro.sim.engine import Simulator, TraceEvent, StreamKey
from repro.sim.collectives import (
    DEFAULT_COLLECTIVE_TIMEOUT_SECONDS,
    DEFAULT_RETRY_POLICY,
    CollectiveCost,
    RetryPolicy,
    all_gather_time,
    all_to_all_time,
    reduce_scatter_time,
    broadcast_time,
    p2p_time,
    achieved_all_gather_bandwidth,
)

__all__ = [
    "Simulator",
    "TraceEvent",
    "StreamKey",
    "DEFAULT_COLLECTIVE_TIMEOUT_SECONDS",
    "DEFAULT_RETRY_POLICY",
    "RetryPolicy",
    "CollectiveCost",
    "all_gather_time",
    "all_to_all_time",
    "reduce_scatter_time",
    "broadcast_time",
    "p2p_time",
    "achieved_all_gather_bandwidth",
]
