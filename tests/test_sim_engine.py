"""Tests for the discrete-event engine."""

import pytest

from repro.debug.workload import join_collective
from repro.sim.engine import Simulator, TraceEvent


class TestRun:
    def test_sequential_on_one_stream(self):
        sim = Simulator()
        a = sim.run(0, "compute", 1.0, "a")
        b = sim.run(0, "compute", 2.0, "b")
        assert (a.start, a.end) == (0.0, 1.0)
        assert (b.start, b.end) == (1.0, 3.0)

    def test_streams_overlap(self):
        sim = Simulator()
        sim.run(0, "compute", 5.0, "big")
        c = sim.run(0, "p2p", 1.0, "send")
        assert c.start == 0.0  # different stream, runs concurrently

    def test_after_dependency(self):
        sim = Simulator()
        a = sim.run(0, "compute", 1.0, "a")
        b = sim.run(1, "compute", 1.0, "b", after=[a])
        assert b.start == 1.0

    def test_not_before(self):
        sim = Simulator()
        e = sim.run(0, "compute", 1.0, "x", not_before=4.0)
        assert e.start == 4.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Simulator().run(0, "compute", -1.0, "bad")


class TestCollective:
    """Synchronising collectives, submitted with ``join_collective``."""

    def test_starts_at_slowest_participant(self):
        sim = Simulator()
        sim.run(0, "compute", 1.0, "w0")
        sim.run(1, "compute", 3.0, "w1")
        events = join_collective(sim, [0, 1], "compute", 0.5, "ag")
        # Rank 0 joins at 1.0 but waits; both end at 3.5.
        assert events[0].start == 1.0
        assert events[1].start == 3.0
        assert events[0].end == events[1].end == 3.5

    def test_straggler_has_shortest_span(self):
        """The Section 6.1 signature: the slow rank's collective trace
        span is the shortest in the group."""
        sim = Simulator()
        sim.run(0, "compute", 1.0, "w0")
        sim.run(1, "compute", 5.0, "w1-slow")
        events = join_collective(sim, [0, 1], "compute", 0.2, "ag")
        assert events[1].duration < events[0].duration

    def test_group_recorded_on_events(self):
        sim = Simulator()
        events = join_collective(sim, [3, 5], "compute", 1.0, "ag")
        assert [e.rank for e in events] == [3, 5]
        assert events[0].group == events[1].group == (3, 5)


class TestInspection:
    def _three_rank_sim(self):
        sim = Simulator()
        sim.run(0, "compute", 2.0, "a")
        sim.run(1, "compute", 1.0, "b")
        sim.run(0, "compute", 1.0, "c", kind="comm")
        return sim

    def test_makespan(self):
        assert self._three_rank_sim().makespan() == 3.0

    def test_makespan_filtered(self):
        assert self._three_rank_sim().makespan(ranks=[1]) == 1.0

    def test_busy_and_idle(self):
        sim = self._three_rank_sim()
        assert sim.busy_time(0) == 3.0
        assert sim.idle_time(1) == 2.0

    def test_events_for_filters(self):
        sim = self._three_rank_sim()
        assert len(sim.events_for(0)) == 2
        assert len(sim.events_for(0, kind="comm")) == 1

    def test_overlaps(self):
        a = TraceEvent("a", "compute", 0, "s", 0.0, 2.0)
        b = TraceEvent("b", "compute", 1, "s", 1.0, 3.0)
        c = TraceEvent("c", "compute", 2, "s", 2.0, 3.0)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_trace_export_format(self):
        from repro.obs.trace import trace_event_dicts

        rows = trace_event_dicts(self._three_rank_sim())
        spans = [r for r in rows if r.get("ph") == "X"]
        assert spans[0]["ts"] == 0.0 and spans[0]["dur"] == 2e6
