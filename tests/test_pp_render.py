"""Tests for ASCII schedule rendering."""

import pytest

from repro.pp.analysis import ScheduleShape
from repro.pp.layout import build_layout
from repro.pp.render import render_timeline
from repro.pp.schedule import build_flexible_schedule
from repro.train.cost import StageCost
from repro.train.executor import execute_pipeline

SHAPE = ScheduleShape(pp=3, v=2, nc=3, nmb=6)


def _run(p2p=0.0):
    sched = build_flexible_schedule(SHAPE)
    layout = build_layout(6, 3, 2)
    return execute_pipeline(
        sched, layout,
        lambda s: StageCost(1.0 * s.n_layers, 0, 0),
        lambda s: StageCost(2.0 * s.n_layers, 0, 0),
        p2p_seconds=p2p,
    )


class TestRenderTimeline:
    def test_one_row_per_rank(self):
        text = render_timeline(_run())
        lines = text.splitlines()
        assert len(lines) == SHAPE.pp
        assert lines[0].startswith("rank 0:")

    def test_idle_dots_increase_with_p2p(self):
        """Exposed P2P shows up as more idle cells (Figure 3 in ASCII)."""
        fast = render_timeline(_run(p2p=0.0), width=120)
        slow = render_timeline(_run(p2p=0.8), width=120)
        assert slow.count(".") > fast.count(".")

    def test_forward_digits_and_backward_letters(self):
        text = render_timeline(_run(), width=150)
        assert any(c.isdigit() for c in text)
        assert any(c.isalpha() and c.islower() and c != "r"
                   for c in text.replace("rank", ""))

    def test_width_validation(self):
        with pytest.raises(ValueError):
            render_timeline(_run(), width=5)
