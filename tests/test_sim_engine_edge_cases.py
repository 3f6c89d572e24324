"""Edge-case semantics of the fast engine, pinned as regression tests.

Each class pins one corner the differential harness found load-bearing
while rewriting the engine: record() splices interleaved with run(),
zero-duration tasks and collectives, modifier chains that restore the
original duration (must NOT be tagged ``faulted`` — the rule is
``modified != original``, not "modifiers ran"), ``TraceEvent.replace``
field checking, and the incremental busy/idle accounting identity
``busy + idle == makespan`` under fault injection.  Fault modifiers and
collectives live outside the engine
(:func:`repro.faults.models.perturb_duration`,
:func:`repro.debug.workload.join_collective`); their corners are pinned
here beside the engine's own.
"""

import pytest

from repro.debug.workload import join_collective
from repro.faults.models import (
    ComputeStraggler,
    DegradedLink,
    FaultPlan,
    perturb_duration,
)
from repro.sim.engine import Simulator, TraceEvent


class TestRecordSplices:
    def test_record_advances_the_stream_frontier(self):
        sim = Simulator()
        sim.run(0, "compute", 0.2, "a")
        sim.record(TraceEvent("spliced", "comm", 0, "compute", 0.1, 0.9))
        b = sim.run(0, "compute", 0.1, "b")
        assert b.start == 0.9  # the splice pushed the frontier

    def test_record_behind_the_frontier_does_not_rewind(self):
        sim = Simulator()
        sim.run(0, "compute", 1.0, "a")
        sim.record(TraceEvent("early", "comm", 0, "compute", 0.0, 0.5))
        b = sim.run(0, "compute", 0.1, "b")
        assert b.start == 1.0

    def test_record_counts_toward_busy_and_makespan(self):
        sim = Simulator()
        sim.record(TraceEvent("only", "comm", 3, "p2p", 1.0, 4.0))
        assert sim.makespan() == 4.0
        assert sim.busy_time(3, "p2p") == 3.0
        assert [e.name for e in sim.events_for(3)] == ["only"]

    def test_record_rejects_inverted_span(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            Simulator().record(TraceEvent("bad", "comm", 0, "compute",
                                          2.0, 1.0))

    def test_overlap_checker_sees_recorded_events(self):
        sim = Simulator()
        sim.run(0, "compute", 1.0, "a")
        sim.record(TraceEvent("intruder", "comm", 0, "compute", 0.5, 0.8))
        pairs = sim.overlapping_events()
        assert any({p[0].name, p[1].name} == {"a", "intruder"}
                   for p in pairs)


class TestZeroDuration:
    def test_zero_duration_task_is_a_point_event(self):
        sim = Simulator()
        sim.run(0, "compute", 1.0, "a")
        z = sim.run(0, "compute", 0.0, "zero")
        assert z.start == z.end == 1.0
        assert z.duration == 0.0

    def test_zero_duration_still_orders_dependents(self):
        sim = Simulator()
        z = sim.run(0, "compute", 0.0, "zero", not_before=3.0)
        b = sim.run(1, "compute", 1.0, "b", after=[z])
        assert b.start == 3.0

    def test_zero_duration_collective(self):
        sim = Simulator()
        sim.run(1, "tp", 2.0, "w")
        events = join_collective(sim, [0, 1], "tp", 0.0, "barrier")
        # Each rank's span starts at its own join time; the slowest
        # rank's event is the zero-width point.
        assert events[0].start == 0.0
        assert events[0].end == events[1].end == 2.0
        assert events[1].duration == 0.0


DOUBLE = lambda r, s, k, n, d: d * 2.0  # noqa: E731
HALVE = lambda r, s, k, n, d: d * 0.5  # noqa: E731


class TestModifierFaultTagging:
    def test_restoring_chain_is_not_tagged_faulted(self):
        # (d * 2.0) * 0.5 == d bitwise for normal floats: the chain ran
        # but the duration is unchanged, so no "faulted" tag.
        out, changed = perturb_duration(
            [DOUBLE, HALVE], 0, "compute", "compute", "a", 0.3)
        assert out == 0.3 and changed == (0, 1)
        sim = Simulator()
        events = join_collective(sim, [0, 1], "tp", 0.1, "ag",
                                 [DOUBLE, HALVE])
        assert all("faulted" not in ev.tags for ev in events)
        assert events[0].end == 0.1

    def test_changing_chain_is_tagged_faulted(self):
        events = join_collective(Simulator(), [0, 1], "tp", 0.3, "ag",
                                 [DOUBLE])
        assert all(ev.tags == ("faulted",) for ev in events)

    def test_identity_modifier_is_not_tagged(self):
        identity = lambda r, s, k, n, d: d  # noqa: E731
        assert perturb_duration([identity], 0, "compute", "compute", "a",
                                0.3) == (0.3, ())
        events = join_collective(Simulator(), [0], "tp", 0.3, "ag",
                                 [identity])
        assert events[0].tags == ()

    def test_negative_modified_duration_rejected(self):
        minus = lambda r, s, k, n, d: d - 5.0  # noqa: E731
        with pytest.raises(ValueError, match="negative"):
            perturb_duration([minus], 0, "compute", "compute", "a", 1.0)
        with pytest.raises(ValueError, match="negative"):
            join_collective(Simulator(), [0, 1], "tp", 1.0, "ag", [minus])


class TestCollectiveValidation:
    def test_negative_duration_rejected_without_modifiers(self):
        with pytest.raises(ValueError, match="negative"):
            join_collective(Simulator(), [0, 1], "tp", -0.5, "neg")


class TestTraceEventReplace:
    def test_replace_changes_only_named_fields(self):
        e = TraceEvent("a", "compute", 0, "s", 0.0, 2.0, (0, 1), ("x",))
        r = e.replace(name="b", end=3.0)
        assert (r.name, r.end) == ("b", 3.0)
        assert (r.kind, r.rank, r.stream, r.start, r.group, r.tags) == \
            ("compute", 0, "s", 0.0, (0, 1), ("x",))
        assert (e.name, e.end) == ("a", 2.0)  # original untouched

    def test_replace_rejects_unknown_fields(self):
        e = TraceEvent("a", "compute", 0, "s", 0.0, 1.0)
        with pytest.raises(TypeError):
            e.replace(durationn=2.0)

    def test_equality_and_hash_are_by_value(self):
        a = TraceEvent("a", "compute", 0, "s", 0.0, 1.0)
        b = TraceEvent("a", "compute", 0, "s", 0.0, 1.0)
        assert a == b and hash(a) == hash(b)
        assert a != b.replace(end=2.0)


class TestBusyIdleAccounting:
    """The satellite regression: incremental busy/idle bookkeeping must
    satisfy ``busy + idle == makespan`` per stream on a fault-injected
    run — exactly, not approximately, because busy accumulates the same
    ``end - start`` spans the makespan maximises over."""

    def _faulted_sim(self):
        from repro.debug.workload import WorkloadSpec, run_synthetic_workload
        from repro.parallel.config import ParallelConfig
        from repro.parallel.mesh import DeviceMesh

        mesh = DeviceMesh(ParallelConfig(tp=2, cp=2, dp=2))
        sim = Simulator()
        run_synthetic_workload(
            mesh, WorkloadSpec(steps=3, layers=4), sim=sim,
            faults=FaultPlan((
                ComputeStraggler(rank=5, extra_seconds=0.3),
                DegradedLink(dim="tp", group=1, scale=3.0),
            )))
        return sim

    def test_busy_plus_idle_equals_makespan_per_stream(self):
        sim = self._faulted_sim()
        makespan = sim.makespan()
        assert makespan > 0
        pairs = {(e.rank, e.stream) for e in sim.events}
        assert pairs
        for rank, stream in sorted(pairs):
            busy = sim.busy_time(rank, stream)
            idle = sim.idle_time(rank, stream)
            assert busy + idle == makespan, (rank, stream)

    def test_incremental_busy_matches_event_sum(self):
        sim = self._faulted_sim()
        for rank, stream in {(e.rank, e.stream) for e in sim.events}:
            expected = sum(e.end - e.start for e in sim.events
                           if e.rank == rank and e.stream == stream)
            assert sim.busy_time(rank, stream) == expected, (rank, stream)

    def test_accounting_survives_record_and_advance(self):
        sim = Simulator()
        sim.run(0, "compute", 1.5, "a")
        # The splice lands after a gap and advances the stream frontier.
        sim.record(TraceEvent("spliced", "comm", 0, "compute", 4.0, 6.0))
        sim.run(0, "compute", 0.5, "b")
        assert sim.makespan() == 6.5
        assert sim.busy_time(0, "compute") == 1.5 + 2.0 + 0.5
        assert sim.idle_time(0, "compute") == 6.5 - 4.0
