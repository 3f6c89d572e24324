"""Tests for gradient/activation memory lifetime (Figure 4)."""

import pytest

from repro.parallel.config import ZeroStage
from repro.pp.analysis import ScheduleShape
from repro.pp.grad_memory import peak_in_flight_from_schedule, track_memory
from repro.pp.schedule import build_afab_schedule, build_flexible_schedule

SHAPE = ScheduleShape(pp=4, v=4, nc=4, nmb=8)


class TestReduceScatterPlacement:
    def test_zero1_one_rs_per_stage_at_end(self):
        """Figure 4a: ZeRO-1 launches reduce-scatter only on the last
        micro-batch of each virtual stage."""
        sched = build_flexible_schedule(SHAPE)
        tl = track_memory(sched, 0, ZeroStage.ZERO_1)
        assert tl.reduce_scatter_count == SHAPE.v
        # All RS events are in the final stretch of the program.
        rs_idx = [s.op_index for s in tl.samples if s.reduce_scatter_launched]
        assert min(rs_idx) > len(tl.samples) // 2

    def test_zero2_rs_every_round(self):
        """Figure 4c: ZeRO-2 reduce-scatters at the end of each run of
        consecutive micro-batches — rounds-times more collectives."""
        sched = build_flexible_schedule(SHAPE)
        z1 = track_memory(sched, 0, ZeroStage.ZERO_1)
        z2 = track_memory(sched, 0, ZeroStage.ZERO_2)
        assert z2.reduce_scatter_count == SHAPE.v * SHAPE.rounds
        assert z2.reduce_scatter_count > z1.reduce_scatter_count

    def test_afab_zero2_single_run_per_stage(self):
        """Figure 4b: in AFAB each stage's backwards are consecutive, so
        ZeRO-2 reduce-scatters once per stage per round."""
        sched = build_afab_schedule(ScheduleShape(pp=4, v=4, nc=8, nmb=8))
        tl = track_memory(sched, 0, ZeroStage.ZERO_2)
        assert tl.reduce_scatter_count == 4  # one per virtual stage


class TestMemoryLevels:
    def test_zero1_grad_memory_monotone_until_end(self):
        """ZeRO-1 gradient memory only grows (buffers never reshard)."""
        sched = build_flexible_schedule(SHAPE)
        tl = track_memory(sched, 0, ZeroStage.ZERO_1)
        grads = [s.grad_bytes for s in tl.samples]
        assert all(b >= a for a, b in zip(grads, grads[1:]))
        assert tl.peak_grad_bytes == SHAPE.v  # all stages unsharded

    def test_zero2_peak_grad_below_zero1(self):
        sched = build_flexible_schedule(SHAPE)
        z1 = track_memory(sched, 0, ZeroStage.ZERO_1, shard_degree=8)
        z2 = track_memory(sched, 0, ZeroStage.ZERO_2, shard_degree=8)
        assert z2.peak_grad_bytes < z1.peak_grad_bytes

    def test_activation_returns_to_zero(self):
        sched = build_flexible_schedule(SHAPE)
        tl = track_memory(sched, 0, ZeroStage.ZERO_1)
        assert tl.samples[-1].activation_bytes == 0.0

    def test_afab_activation_peak_equals_tmb(self):
        shape = ScheduleShape(pp=2, v=2, nc=4, nmb=4)
        sched = build_afab_schedule(shape)
        tl = track_memory(sched, 0, ZeroStage.ZERO_1)
        assert max(s.activation_bytes for s in tl.samples) == shape.tmb

    def test_stage_weights_scale_memory(self):
        sched = build_flexible_schedule(SHAPE)
        base = track_memory(sched, 0, ZeroStage.ZERO_1)
        heavy = track_memory(
            sched, 0, ZeroStage.ZERO_1,
            stage_weights={vs: 2.0 for vs in range(SHAPE.v)},
        )
        assert heavy.peak_total_bytes == pytest.approx(
            2 * base.peak_total_bytes
        )

    def test_shard_degree_validated(self):
        sched = build_flexible_schedule(SHAPE)
        with pytest.raises(ValueError):
            track_memory(sched, 0, ZeroStage.ZERO_2, shard_degree=0)


class TestPeakInFlight:
    def test_matches_analysis_for_all_ranks(self):
        sched = build_flexible_schedule(SHAPE)
        for ppr in range(SHAPE.pp):
            assert peak_in_flight_from_schedule(sched, ppr) == \
                SHAPE.peak_in_flight(ppr)
