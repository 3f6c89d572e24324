"""Tests for collective cost models."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware.cluster import grand_teton
from repro.sim.collectives import (
    RetryPolicy,
    achieved_all_gather_bandwidth,
    all_gather_time,
    all_to_all_time,
    broadcast_time,
    p2p_time,
    reduce_scatter_time,
)

CLUSTER = grand_teton(64)

#: Every group cost model, for degenerate-input sweeps.
COST_FNS = (all_gather_time, reduce_scatter_time, broadcast_time,
            all_to_all_time)


class TestAllGather:
    def test_single_rank_is_free(self):
        c = all_gather_time(CLUSTER, [0], 1e9)
        assert c.seconds == 0.0

    def test_ring_wire_bytes(self):
        c = all_gather_time(CLUSTER, [0, 1, 2, 3], 4e6)
        assert c.bytes_on_wire == pytest.approx(3e6)

    def test_intra_node_faster_than_inter_node(self):
        intra = all_gather_time(CLUSTER, [0, 1, 2, 3], 1e8)
        inter = all_gather_time(CLUSTER, [0, 8, 16, 24], 1e8)
        assert intra.seconds < inter.seconds

    def test_congestion_slows(self):
        clean = all_gather_time(CLUSTER, [0, 8], 1e8)
        congested = all_gather_time(CLUSTER, [0, 8], 1e8, congestion=2.0)
        assert congested.seconds > clean.seconds

    def test_reduce_scatter_symmetric(self):
        ag = all_gather_time(CLUSTER, [0, 1, 2, 3], 1e8)
        rs = reduce_scatter_time(CLUSTER, [0, 1, 2, 3], 1e8)
        assert ag.seconds == rs.seconds

    @given(st.integers(min_value=2, max_value=8))
    def test_large_payload_bandwidth_near_link_rate(self, n):
        ranks = list(range(n))  # intra-node
        bw = achieved_all_gather_bandwidth(CLUSTER, ranks, 10e9)
        link = CLUSTER.intra_node_link.bandwidth_gbps
        assert 0.7 * link < bw <= link

    def test_bandwidth_grows_with_message_size(self):
        small = achieved_all_gather_bandwidth(CLUSTER, [0, 1], 1e5)
        big = achieved_all_gather_bandwidth(CLUSTER, [0, 1], 1e9)
        assert big > small


class TestBroadcast:
    def test_log_hops(self):
        b2 = broadcast_time(CLUSTER, [0, 1], 1e6)
        b8 = broadcast_time(CLUSTER, list(range(8)), 1e6)
        assert b8.seconds == pytest.approx(3 * b2.seconds)

    def test_validations(self):
        with pytest.raises(ValueError):
            broadcast_time(CLUSTER, [], 1e6)
        with pytest.raises(ValueError):
            broadcast_time(CLUSTER, [0, 0], 1e6)
        with pytest.raises(ValueError):
            broadcast_time(CLUSTER, [0, 1], -5)

    def test_zero_bytes_is_latency_only(self):
        """Regression: a zero-byte broadcast used to divide by an
        effective bandwidth computed at message size 0 and raise; it must
        price as pure latency (hops * alpha), like the ring models."""
        link = CLUSTER.intra_node_link
        c = broadcast_time(CLUSTER, [0, 1, 2, 3], 0.0)
        assert c.seconds == pytest.approx(2 * link.latency)  # ceil(log2 4)
        assert c.bytes_on_wire == 0.0
        assert c.algorithm_bandwidth == 0.0


class TestAllToAll:
    def test_single_rank_is_free(self):
        c = all_to_all_time(CLUSTER, [3], 1e9)
        assert c.seconds == 0.0
        assert c.algorithm_bandwidth == float("inf")

    def test_pairwise_wire_bytes(self):
        # n - 1 distinct shards of S / n bytes each leave every rank.
        c = all_to_all_time(CLUSTER, [0, 1, 2, 3], 4e6)
        assert c.bytes_on_wire == pytest.approx(3e6)

    def test_hierarchical_intra_faster_than_cross_node(self):
        intra = all_to_all_time(CLUSTER, [0, 1, 2, 3], 1e8)
        inter = all_to_all_time(CLUSTER, [0, 8, 16, 24], 1e8)
        assert intra.seconds < inter.seconds

    def test_mixed_group_between_pure_extremes(self):
        # Two nodes' worth of ranks: slower than all-intra, faster than
        # a group where every peer is cross-node.
        intra = all_to_all_time(CLUSTER, [0, 1, 2, 3], 1e8)
        mixed = all_to_all_time(CLUSTER, [0, 1, 8, 9], 1e8)
        spread = all_to_all_time(CLUSTER, [0, 8, 16, 24], 1e8)
        assert intra.seconds < mixed.seconds < spread.seconds

    def test_congestion_slows(self):
        clean = all_to_all_time(CLUSTER, [0, 8], 1e8)
        congested = all_to_all_time(CLUSTER, [0, 8], 1e8, congestion=2.0)
        assert congested.seconds > clean.seconds

    def test_validations(self):
        with pytest.raises(ValueError):
            all_to_all_time(CLUSTER, [], 1e6)
        with pytest.raises(ValueError):
            all_to_all_time(CLUSTER, [0, 0], 1e6)
        with pytest.raises(ValueError):
            all_to_all_time(CLUSTER, [0, 1], -1)
        with pytest.raises(ValueError):
            all_to_all_time(CLUSTER, [0, 1], 1e6, congestion=0.9)


class TestDegenerateInputs:
    """Zero-byte and single-rank sweeps over every group cost model."""

    @pytest.mark.parametrize("fn", COST_FNS)
    def test_zero_bytes_never_raises(self, fn):
        for ranks in ([0, 1], [0, 8], list(range(8)), [0, 8, 16, 24]):
            c = fn(CLUSTER, ranks, 0.0)
            assert c.seconds >= 0.0
            assert c.bytes_on_wire == 0.0

    @pytest.mark.parametrize("fn", COST_FNS)
    def test_single_rank_group_is_free(self, fn):
        c = fn(CLUSTER, [7], 1e9)
        assert c.seconds == 0.0
        assert c.bytes_on_wire == 0.0
        assert c.algorithm_bandwidth == float("inf")

    def test_bandwidth_single_rank_is_zero(self):
        assert achieved_all_gather_bandwidth(CLUSTER, [0], 1e9) == 0.0

    def test_retry_overhead_zero_failures_is_zero(self):
        assert RetryPolicy().retry_overhead_seconds(0) == 0.0


class TestP2P:
    def test_intra_vs_inter_node(self):
        intra = p2p_time(CLUSTER, 0, 1, 1e8)
        inter = p2p_time(CLUSTER, 0, 8, 1e8)
        assert inter > intra

    def test_congestion(self):
        assert p2p_time(CLUSTER, 0, 8, 1e8, congestion=2.0) > \
            p2p_time(CLUSTER, 0, 8, 1e8)

    def test_zero_bytes_is_latency(self):
        assert p2p_time(CLUSTER, 0, 8, 0) == \
            CLUSTER.inter_node_link.latency

    def test_congestion_applied_values_bitwise(self):
        """Regression for the branch restructure: each branch computes
        only what it returns, and the congested transfer time must stay
        bitwise ``latency + bytes / (bandwidth / congestion)``."""
        for src, dst in ((0, 1), (0, 8)):
            link = CLUSTER.link_between(src, dst)
            for congestion in (1.0, 1.5, 4.0):
                expected = link.latency + 1e8 / (link.bandwidth / congestion)
                assert p2p_time(CLUSTER, src, dst, 1e8,
                                congestion=congestion) == expected
        # Zero bytes under congestion: pure latency, no bandwidth term.
        assert p2p_time(CLUSTER, 0, 8, 0, congestion=8.0) == \
            CLUSTER.inter_node_link.latency
