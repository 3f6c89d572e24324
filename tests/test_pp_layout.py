"""Tests for pipeline layer placement and the balanced co-design."""

import pytest
from hypothesis import given, strategies as st

from repro.pp.layout import build_layout, build_layout_from_counts


class TestBuildLayout:
    def test_even_division(self):
        layout = build_layout(8, pp=4, v=2)
        assert all(s.n_layers == 1 for s in layout.stages)
        assert layout.n_layers == 8

    def test_balanced_405b_ends_are_empty(self):
        """126 layers over 128 stages: stage 0 keeps only the embedding,
        the last stage only the head (Section 3.1.2 / 7.3.1)."""
        layout = build_layout(126, pp=16, v=8)
        assert layout.stage(0).n_layers == 0
        assert layout.stage(127).n_layers == 0
        assert all(layout.stage(s).n_layers == 1 for s in range(1, 127))

    def test_unbalanced_128_fills_all(self):
        layout = build_layout(128, pp=16, v=8)
        assert all(s.n_layers == 1 for s in layout.stages)

    def test_embedding_and_head_placement(self):
        layout = build_layout(12, pp=3, v=2)
        assert layout.stage(0).has_embedding
        assert layout.stage(5).has_output_head
        assert not layout.stage(1).has_embedding
        assert not layout.stage(1).has_output_head

    def test_layers_contiguous_in_stage_order(self):
        layout = build_layout(10, pp=2, v=2)
        flat = [l for s in layout.stages for l in s.layers]
        assert flat == list(range(10))

    def test_interleaved_rank_mapping(self):
        layout = build_layout(8, pp=4, v=2)
        # Rank 0 hosts global stages 0 and 4 (Figure 2 pattern).
        stages = layout.stages_of_rank(0)
        assert [s.stage for s in stages] == [0, 4]
        assert [s.stage for s in layout.stages_of_rank(1)] == [1, 5]
        assert layout.global_stage(1, 1) == 5

    def test_layers_on_rank(self):
        layout = build_layout(126, pp=16, v=8)
        assert layout.layers_on_rank(0) == 7   # one empty stage
        assert layout.layers_on_rank(15) == 7
        assert layout.layers_on_rank(5) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            build_layout(-1, 2, 2)
        with pytest.raises(ValueError):
            build_layout(4, 0, 2)
        layout = build_layout(8, 4, 2)
        with pytest.raises(ValueError):
            layout.stages_of_rank(4)
        with pytest.raises(ValueError):
            layout.global_stage(0, 2)

    @given(
        n_layers=st.integers(min_value=0, max_value=200),
        pp=st.integers(min_value=1, max_value=16),
        v=st.integers(min_value=1, max_value=8),
    )
    def test_all_layers_placed_exactly_once(self, n_layers, pp, v):
        layout = build_layout(n_layers, pp, v)
        flat = [l for s in layout.stages for l in s.layers]
        assert flat == list(range(n_layers))

    @given(
        n_layers=st.integers(min_value=0, max_value=200),
        pp=st.integers(min_value=1, max_value=16),
        v=st.integers(min_value=1, max_value=8),
    )
    def test_ends_never_heavier_than_middle(self, n_layers, pp, v):
        layout = build_layout(n_layers, pp, v)
        counts = [s.n_layers for s in layout.stages]
        if len(counts) >= 3:
            middle_max = max(counts[1:-1])
            assert counts[0] <= middle_max or middle_max == 0
            assert counts[-1] <= middle_max or middle_max == 0


class TestExplicitCounts:
    def test_round_trip(self):
        layout = build_layout_from_counts([2, 1, 0, 3], pp=2, v=2)
        assert [s.n_layers for s in layout.stages] == [2, 1, 0, 3]
        assert layout.n_layers == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            build_layout_from_counts([1, 2], pp=2, v=2)
        with pytest.raises(ValueError):
            build_layout_from_counts([1, -1, 0, 0], pp=2, v=2)
