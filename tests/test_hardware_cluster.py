"""Tests for cluster topology."""

import pytest

from repro.hardware.cluster import GRAND_TETON_16K, ClusterSpec, grand_teton
from repro.hardware.network import NVLINK_H100, ROCE_400G


class TestClusterSpec:
    def test_production_cluster_size(self):
        assert GRAND_TETON_16K.num_gpus == 16384
        assert GRAND_TETON_16K.gpus_per_node == 8
        assert GRAND_TETON_16K.num_nodes == 2048

    def test_node_of_rank(self):
        c = grand_teton(64)
        assert c.node_of(0) == 0
        assert c.node_of(7) == 0
        assert c.node_of(8) == 1
        assert c.node_of(13) == 1

    def test_link_between_same_node_is_nvlink(self):
        c = grand_teton(64)
        assert c.link_between(0, 7) is NVLINK_H100
        assert c.link_between(0, 8) is ROCE_400G

    def test_group_link_slowest_hop_wins(self):
        c = grand_teton(64)
        assert c.group_link([0, 1, 2]) is NVLINK_H100
        assert c.group_link([0, 1, 9]) is ROCE_400G
        assert c.group_link([5]) is NVLINK_H100
        # Unsorted groups: only the smallest and largest rank decide.
        assert c.group_link([7, 0, 3]) is NVLINK_H100
        assert c.group_link([9, 0, 3]) is ROCE_400G
        assert c.group_link([15, 8, 12]) is NVLINK_H100

    def test_group_link_rank_bounds_checked(self):
        c = grand_teton(16)
        for group in ([0, 16], [16], [-1, 3], [3, -1, 7]):
            with pytest.raises(ValueError):
                c.group_link(group)

    def test_rank_bounds_checked(self):
        c = grand_teton(16)
        with pytest.raises(ValueError):
            c.node_of(16)
        with pytest.raises(ValueError):
            c.node_of(-1)

    def test_oversubscription_reduces_bandwidth(self):
        c = ClusterSpec(num_nodes=4, oversubscription=2.0)
        assert c.inter_node_bandwidth() == pytest.approx(
            ROCE_400G.bandwidth / 2
        )
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=4, oversubscription=0.5)

    def test_grand_teton_requires_multiple_of_8(self):
        with pytest.raises(ValueError):
            grand_teton(12)

    def test_empty_group_rejected(self):
        c = grand_teton(16)
        with pytest.raises(ValueError):
            c.group_link([])
