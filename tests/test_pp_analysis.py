"""Tests for the closed-form pipeline-schedule math (Section 3.1.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.pp.analysis import (
    ScheduleShape,
    bubble_ratio,
    default_nc,
    degenerates_to_afab,
    extra_warmup_vs_interleaved,
    peak_in_flight_microbatches,
    validate_schedule_params,
    warmup_microbatches,
)


class TestWarmup:
    def test_paper_formula(self):
        # (v - 1) * nc + 2 * (pp - ppr - 1)
        assert warmup_microbatches(pp=3, ppr=0, v=2, nc=3) == 3 + 4
        assert warmup_microbatches(pp=3, ppr=2, v=2, nc=3) == 3

    def test_earlier_ranks_warm_up_deeper(self):
        w = [warmup_microbatches(8, r, 2, 8) for r in range(8)]
        assert w == sorted(w, reverse=True)

    def test_extra_microbatches_when_nc_exceeds_pp(self):
        base = warmup_microbatches(4, 0, 3, 4)
        extra = warmup_microbatches(4, 0, 3, 6)
        assert extra - base == (6 - 4) * (3 - 1)
        assert extra_warmup_vs_interleaved(4, 3, 6) == 4

    def test_no_extra_when_nc_at_most_pp(self):
        assert extra_warmup_vs_interleaved(4, 3, 4) == 0
        assert extra_warmup_vs_interleaved(4, 3, 2) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            warmup_microbatches(4, 4, 1, 1)
        with pytest.raises(ValueError):
            warmup_microbatches(4, -1, 1, 1)


class TestBubbleRatio:
    def test_formula(self):
        # (pp - 1) / (nmb * v), Section 3.1.1.
        assert bubble_ratio(16, 16, 8) == pytest.approx(15 / 128)

    def test_more_microbatches_smaller_bubble(self):
        assert bubble_ratio(8, 32, 1) < bubble_ratio(8, 8, 1)

    def test_more_virtual_stages_smaller_bubble(self):
        assert bubble_ratio(8, 8, 4) < bubble_ratio(8, 8, 1)

    def test_single_stage_no_bubble(self):
        assert bubble_ratio(1, 4, 1) == 0.0


class TestPeakInFlight:
    def test_afab_holds_everything(self):
        assert peak_in_flight_microbatches(
            4, 0, 2, 4, 8, all_forward_all_backward=True
        ) == 16

    def test_1f1b_capped_at_total(self):
        got = peak_in_flight_microbatches(4, 0, 8, 4, 4)
        assert got <= 32

    def test_last_rank_holds_least(self):
        first = peak_in_flight_microbatches(8, 0, 2, 8, 16)
        last = peak_in_flight_microbatches(8, 7, 2, 8, 16)
        assert first > last


class TestScheduleShape:
    def test_derived_quantities(self):
        s = ScheduleShape(pp=4, v=2, nc=4, nmb=8)
        assert s.tmb == 16
        assert s.rounds == 2
        assert bubble_ratio(s.pp, s.nmb, s.v) == pytest.approx(3 / 16)

    def test_nc_must_divide_nmb(self):
        with pytest.raises(ValueError):
            ScheduleShape(pp=4, v=2, nc=3, nmb=8)

    def test_nc_bounds(self):
        with pytest.raises(ValueError):
            ScheduleShape(pp=4, v=1, nc=9, nmb=8)
        with pytest.raises(ValueError):
            validate_schedule_params(4, 1, 0, 8)

    @given(
        pp=st.integers(min_value=1, max_value=8),
        v=st.integers(min_value=1, max_value=4),
        nmb=st.integers(min_value=1, max_value=24),
    )
    def test_default_nc_always_valid(self, pp, v, nmb):
        nc = default_nc(pp, nmb)
        validate_schedule_params(pp, v, nc, nmb)
        assert nc <= pp

    def test_degenerates_to_afab(self):
        assert degenerates_to_afab(pp=8, nc=4)
        assert not degenerates_to_afab(pp=8, nc=8)
