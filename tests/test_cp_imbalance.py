"""Tests for the fleet-level CP imbalance simulation (Figure 14 / §7.3.2)."""

import numpy as np
import pytest

from repro.cp.imbalance import simulate_fleet_imbalance
from repro.cp.sharding import rank_workloads
from repro.data.documents import make_batch
from repro.hardware.cluster import grand_teton
from repro.hardware.gpu import H100_HBM3

CLUSTER = grand_teton(256, H100_HBM3)


@pytest.fixture(scope="module")
def report():
    return simulate_fleet_imbalance(
        CLUSTER, seq=131072, cp=16, n_dp_groups=8, steps=4,
        mean_doc_len=32768.0, rng=np.random.default_rng(0),
    )


class TestFleetImbalance:
    def test_compute_gap_exists(self, report):
        assert report.slowest_over_fastest_compute > 1.05

    def test_gap_driven_by_attention(self, report):
        """Figure 14b: the compute gap is entirely attention-kernel time,
        so the attention-only ratio exceeds the total-compute ratio."""
        assert report.slowest_over_fastest_attention > \
            report.slowest_over_fastest_compute

    def test_waiting_dominates_exposed_cp(self, report):
        """Section 7.3.2: most exposed CP latency (65.75% in the paper)
        is waiting for the slowest rank, not the collective itself."""
        assert report.waiting_fraction_of_exposed > 0.4

    def test_cp_exposed_fraction_small_but_visible(self, report):
        assert 0.005 < report.cp_exposed_fraction < 0.25

    def test_overlap_headroom_bounded_by_exposed(self, report):
        """Any overlapping CP algorithm still waits for the slowest rank,
        so the headroom is a small slice of elapsed time (2.62% in the
        paper)."""
        assert report.overlap_headroom < report.cp_exposed_fraction
        assert report.overlap_headroom < 0.1

    def test_causal_only_workload_is_balanced(self):
        """With no document structure (one giant doc per batch) all CP
        ranks do identical attention work, so the fleet's gap and
        waiting come only from document masks."""
        batch = make_batch(131072)
        workloads = rank_workloads(131072, 16, batch)
        assert max(workloads) == min(workloads)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_fleet_imbalance(
                CLUSTER, seq=131072, cp=4, n_dp_groups=0, steps=1,
                mean_doc_len=1024.0,
            )
