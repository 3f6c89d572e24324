"""Tests for slow-rank localisation (Section 6.1) and memory snapshots
(Section 6.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.debug.memory_snapshot import (
    MemorySnapshot,
    pp_output_release_savings,
)
from repro.debug.trace_analysis import identify_slow_rank
from repro.debug.workload import run_synthetic_workload
from repro.faults import ComputeStraggler, FaultPlan
from repro.parallel.config import ParallelConfig
from repro.parallel.mesh import DeviceMesh
from repro.pp.analysis import ScheduleShape
from repro.pp.schedule import build_flexible_schedule
from repro.sim.engine import Simulator


class TestFigure8Scenario:
    """The paper's worked example: 8 GPUs, (cp=2, tp=4)."""

    MESH = DeviceMesh(ParallelConfig(tp=4, cp=2))
    FAULT = FaultPlan((ComputeStraggler(rank=6, extra_seconds=0.5),))

    def test_finds_injected_fault_on_rank_6(self):
        sim = run_synthetic_workload(self.MESH, faults=self.FAULT)
        rep = identify_slow_rank(sim, self.MESH)
        assert rep.slow_rank == 6
        assert rep.attribution == "compute"

    def test_search_descends_cp_before_tp(self):
        sim = run_synthetic_workload(self.MESH, faults=self.FAULT)
        rep = identify_slow_rank(sim, self.MESH)
        dims = [d.dim for d in rep.decisions]
        assert dims.index("cp") < dims.index("tp")

    def test_victim_rank_not_blamed(self):
        """Rank 2 shares a TP group with... no — rank 6's CP peer is rank
        2; rank 2 looks slow inside its TP group but must not be the
        verdict."""
        sim = run_synthetic_workload(self.MESH, faults=self.FAULT)
        rep = identify_slow_rank(sim, self.MESH)
        assert rep.slow_rank != 2

    def test_describe_readable(self):
        sim = run_synthetic_workload(self.MESH, faults=self.FAULT)
        text = identify_slow_rank(sim, self.MESH).describe()
        assert "slow rank: 6" in text


class TestTopDown4D:
    MESH = DeviceMesh(ParallelConfig(tp=2, cp=2, pp=2, dp=2))

    @settings(max_examples=16, deadline=None)
    @given(victim=st.integers(min_value=0, max_value=15))
    def test_any_fault_is_localised(self, victim):
        sim = run_synthetic_workload(self.MESH, faults=FaultPlan((
            ComputeStraggler(rank=victim, extra_seconds=0.7),)))
        rep = identify_slow_rank(sim, self.MESH)
        assert rep.slow_rank == victim

    def test_no_comm_events_raises(self):
        sim = Simulator()
        sim.run(0, "compute", 1.0, "only-compute")
        with pytest.raises(ValueError):
            identify_slow_rank(sim, self.MESH)

    def test_healthy_fleet_attributes_communication(self):
        sim = run_synthetic_workload(self.MESH)
        rep = identify_slow_rank(sim, self.MESH)
        assert rep.attribution == "communication"
        assert rep.compute_excess_seconds == pytest.approx(0.0, abs=1e-9)


class TestMemorySnapshot:
    def test_peak_and_attribution(self):
        snap = MemorySnapshot()
        snap.alloc(0.0, "weights", 100)
        snap.alloc(1.0, "activations", 50)
        snap.free(2.0, "activations")
        snap.alloc(3.0, "activations", 20)
        peak, t = snap.peak()
        assert peak == 150 and t == 1.0
        assert snap.live_at_peak() == {"weights": 100, "activations": 50}

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            MemorySnapshot().alloc(0.0, "x", -1)


class TestOutputReleaseOptimization:
    def test_early_release_saves_memory(self):
        """Section 6.3: releasing the P2P-sent forward output (the
        autograd engine would hold it until backward) lowers peak."""
        sched = build_flexible_schedule(ScheduleShape(pp=4, v=2, nc=4,
                                                      nmb=8))
        without, with_release = pp_output_release_savings(
            sched, ppr=0, output_bytes=1.0, act_bytes=4.0,
        )
        assert with_release < without

    def test_saving_proportional_to_in_flight(self):
        sched = build_flexible_schedule(ScheduleShape(pp=4, v=2, nc=4,
                                                      nmb=8))
        w1, r1 = pp_output_release_savings(sched, 0, output_bytes=1.0,
                                           act_bytes=4.0)
        w2, r2 = pp_output_release_savings(sched, 0, output_bytes=2.0,
                                           act_bytes=4.0)
        assert (w2 - r2) == pytest.approx(2 * (w1 - r1))

    def test_validation(self):
        sched = build_flexible_schedule(ScheduleShape(pp=2, v=1, nc=2,
                                                      nmb=2))
        with pytest.raises(ValueError):
            pp_output_release_savings(sched, 0, -1.0, 1.0)
