"""Detection-accuracy matrix: inject one straggler everywhere, find it.

For every mesh in a small 4D family and every global rank as victim, a
single compute straggler must be localised to the exact rank with
``attribution == "compute"`` (the Section 6.1 loop, closed).  Alongside
the matrix: regression tests for the two bugs the loop flushed out — the
PP hand-off wrap edge at the last stage, and the even-fleet median in
the attribution check.
"""

import pytest

from repro.debug.trace_analysis import identify_slow_rank
from repro.debug.workload import WorkloadSpec, run_synthetic_workload
from repro.faults import ComputeStraggler, FaultPlan, score_detection
from repro.parallel.config import ParallelConfig
from repro.parallel.mesh import DeviceMesh
from repro.sim.engine import Simulator, TraceEvent

#: Small meshes exercising every dimension as the discriminating level.
MATRIX_MESHES = ((4, 2, 1, 1), (2, 2, 2, 1), (2, 1, 2, 2))

#: Keep the matrix fast: 2 steps x 3 layers is enough for every level's
#: collectives to appear at least twice.
SPEC = WorkloadSpec(steps=2, layers=3)


def _mesh(tp, cp, pp, dp):
    return DeviceMesh(ParallelConfig(tp=tp, cp=cp, pp=pp, dp=dp))


class TestDetectionMatrix:
    @pytest.mark.parametrize("shape", MATRIX_MESHES,
                             ids=lambda s: "tp%d-cp%d-pp%d-dp%d" % s)
    @pytest.mark.parametrize("victim", range(8))
    def test_single_straggler_localised_exactly(self, shape, victim):
        mesh = _mesh(*shape)
        assert mesh.world_size == 8  # matrix assumption: victims 0..7
        plan = FaultPlan((ComputeStraggler(rank=victim, extra_seconds=0.5),))
        score, sim = score_detection(mesh, plan, spec=SPEC)
        assert score.exact_hit, (
            f"straggler at rank {victim} on {shape}: "
            f"detected {score.detected_rank}")
        assert score.attribution == "compute"
        assert score.levels_descended >= 1
        assert score.injected_events > 0
        assert score.blame_seconds > 0

    @pytest.mark.parametrize("shape", MATRIX_MESHES,
                             ids=lambda s: "tp%d-cp%d-pp%d-dp%d" % s)
    def test_healthy_fleet_attributes_communication(self, shape):
        mesh = _mesh(*shape)
        sim = run_synthetic_workload(mesh, spec=SPEC)
        rep = identify_slow_rank(sim, mesh)
        assert rep.attribution == "communication"
        assert rep.compute_excess_seconds == pytest.approx(0.0, abs=1e-9)


class TestLastStageWrapRegression:
    """The PP hand-off used to wrap from the last stage back to stage 0,
    smearing a last-stage straggler's lateness onto stage 0's next step
    and mislocalising it."""

    MESH = _mesh(2, 1, 4, 1)  # pp=4: ranks 6, 7 are the last stage

    @pytest.mark.parametrize("victim", [6, 7])
    def test_last_stage_straggler_localised(self, victim):
        plan = FaultPlan((ComputeStraggler(rank=victim, extra_seconds=0.5),))
        score, _ = score_detection(self.MESH, plan, spec=SPEC)
        assert score.exact_hit
        assert score.attribution == "compute"

    def test_no_wrap_edge_in_workload(self):
        """Every PP hand-off goes stage s -> s+1; none wraps to stage 0."""
        sim = run_synthetic_workload(self.MESH, spec=SPEC)
        handoffs = [e for e in sim.events if e.name.startswith("pp:")]
        assert handoffs, "workload lost its PP hand-offs"
        for e in handoffs:
            stages = sorted({self.MESH.coord_of(r).pp for r in e.group})
            assert len(stages) == 2 and stages[1] == stages[0] + 1, (
                f"PP hand-off {e.name!r} spans stages {stages}")


def _join_after(sim, done, duration, name, kind="comm"):
    """A ``tp`` collective each rank joins when its ``done`` event ends;
    the payload starts once the last rank has joined."""
    end = max(e.end for e in done.values()) + duration
    group = tuple(done)
    for rank, e in done.items():
        sim.record(TraceEvent(name, kind, rank, "tp", e.end, end, group))


class TestEvenFleetMedianRegression:
    """Attribution used the upper-middle element as the even-fleet
    median; a straggler whose own compute lands in the upper half then
    inflated the baseline and deflated its excess below the threshold."""

    MESH = _mesh(4, 1, 1, 1)

    def _trace(self, compute_seconds):
        sim = Simulator()
        done = {
            rank: sim.run(rank, "compute", seconds, f"gemm:{rank}")
            for rank, seconds in enumerate(compute_seconds)
        }
        _join_after(sim, done, 0.1, "tp:ag")
        return sim

    def test_upper_half_straggler_still_compute_bound(self):
        # True median is 1.1 -> excess 0.15 > 5% threshold.  The old
        # upper-middle "median" (1.2) gave excess 0.05 < 0.06 and called
        # this communication-bound.
        rep = identify_slow_rank(self._trace([1.0, 1.0, 1.2, 1.25]),
                                 self.MESH)
        assert rep.slow_rank == 3
        assert rep.attribution == "compute"
        assert rep.compute_excess_seconds == pytest.approx(0.15)

    def test_balanced_fleet_stays_communication(self):
        rep = identify_slow_rank(self._trace([1.0, 1.0, 1.0, 1.01]),
                                 self.MESH)
        assert rep.attribution == "communication"

    def test_exposed_comm_events_feed_the_search(self):
        """A straggler visible only through exposed waits (the executor's
        ``exposed_comm`` kind) must still be localisable."""
        sim = Simulator()
        done = {
            rank: sim.run(rank, "compute", seconds, f"gemm:{rank}")
            for rank, seconds in enumerate([1.0, 1.0, 1.0, 1.6])
        }
        _join_after(sim, done, 0.1, "tp:ag", kind="exposed_comm")
        rep = identify_slow_rank(sim, self.MESH)
        assert rep.slow_rank == 3
        assert rep.attribution == "compute"
