"""Failure domains: the seeded taxonomy, correlated fail-stop blast
radii, gray degradation, silent corruption, and the fixed-draw RNG
contract that makes cross-policy comparisons exact.
"""

import numpy as np
import pytest

from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.parallel.config import JobConfig
from repro.resilience import (
    CORRELATED_DOMAINS,
    TAXONOMY_PRESETS,
    FailureEvent,
    FailureProcess,
    FailureTaxonomy,
    FixedInterval,
    RunConfig,
    parse_taxonomy,
    simulate_run,
)

#: Failure taxonomy kinds, in classification-band order.
FAILURE_KINDS = ("node_loss", "collective_retry", "rack_loss", "pod_loss",
                 "gray", "silent_corruption", "transient_straggler")

MODEL = LLAMA3_8B
JOB = JobConfig(seq=8192, gbs=32, ngpu=32)
CLUSTER = grand_teton(32)


class TestTaxonomy:
    def test_defaults_reproduce_the_legacy_iid_split(self):
        tax = FailureTaxonomy()
        assert tax.node_loss_fraction == 0.4
        assert tax.retry_fraction == 0.3
        for frac in (tax.rack_loss_fraction, tax.pod_loss_fraction,
                     tax.gray_fraction, tax.corruption_fraction):
            assert frac == 0.0
        assert not tax.has_gray

    def test_classification_bands_are_nested_in_order(self):
        tax = FailureTaxonomy(
            node_loss_fraction=0.1, retry_fraction=0.1,
            rack_loss_fraction=0.1, pod_loss_fraction=0.1,
            gray_fraction=0.1, corruption_fraction=0.1)
        expected = ["node_loss", "collective_retry", "rack_loss",
                    "pod_loss", "gray", "gray", "silent_corruption",
                    "transient_straggler"]
        # Band midpoints: 0.05, 0.15, ..., plus the straggler remainder.
        draws = [0.05, 0.15, 0.25, 0.35, 0.41, 0.47, 0.55, 0.8]
        kinds = [tax.classify(u)[0] for u in draws]
        assert kinds == expected

    def test_gray_subtype_splits_without_an_extra_draw(self):
        tax = FailureTaxonomy(node_loss_fraction=0.0, retry_fraction=0.0,
                              gray_fraction=0.5, gray_compute_fraction=0.6)
        # gray band is [0, 0.5): first 60% compute, rest link.
        assert tax.classify(0.1) == ("gray", "compute")
        assert tax.classify(0.29) == ("gray", "compute")
        assert tax.classify(0.31) == ("gray", "link")
        assert tax.classify(0.49) == ("gray", "link")
        assert tax.classify(0.7) == ("transient_straggler", "")

    @pytest.mark.parametrize("bad", [
        dict(node_loss_fraction=-0.1),
        dict(node_loss_fraction=0.7, retry_fraction=0.7),
        dict(retry_success_p=0.0),
        dict(retry_success_p=1.5),
        dict(gray_compute_scale=1.0),
        dict(gray_link_scale=0.5),
        dict(gray_compute_fraction=1.5),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            FailureTaxonomy(**bad)

    def test_presets_are_valid_and_distinct(self):
        assert set(TAXONOMY_PRESETS) == {
            "iid", "rack-correlated", "gray-heavy", "production"}
        assert TAXONOMY_PRESETS["iid"] == FailureTaxonomy()
        assert TAXONOMY_PRESETS["rack-correlated"].rack_loss_fraction > 0
        assert TAXONOMY_PRESETS["gray-heavy"].has_gray
        assert TAXONOMY_PRESETS["production"].corruption_fraction > 0

    def test_parse_taxonomy_preset_and_kv(self):
        assert parse_taxonomy("rack-correlated") \
            == TAXONOMY_PRESETS["rack-correlated"]
        tax = parse_taxonomy("node=0.2,rack=0.1,gray=0.3,retry-p=0.9")
        assert tax.node_loss_fraction == 0.2
        assert tax.rack_loss_fraction == 0.1
        assert tax.gray_fraction == 0.3
        assert tax.retry_success_p == 0.9

    @pytest.mark.parametrize("bad", [
        "", "bogus-preset", "node", "node=0.2,node=0.3,what=1",
        "node=notanumber", "node=0.8,retry=0.8",
    ])
    def test_parse_taxonomy_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_taxonomy(bad)


class TestFailureEventIndices:
    """Satellite: where→index mapping must stay in bounds for worlds
    that are not powers of two."""

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 12, 100, 131071])
    def test_indices_in_bounds_on_awkward_sizes(self, n):
        for where in (0.0, 0.1, 0.5, 0.9999999999, 1.0 - 1e-16):
            ev = FailureEvent(time_seconds=1.0, kind="node_loss",
                              where_fraction=where, failed_attempts=0)
            assert 0 <= ev.index(n) < n

    def test_extremes_map_to_first_and_last(self):
        ev_lo = FailureEvent(time_seconds=0.0, kind="gray",
                             where_fraction=0.0, failed_attempts=0)
        ev_hi = FailureEvent(time_seconds=0.0, kind="gray",
                             where_fraction=1.0 - 1e-16, failed_attempts=0)
        assert ev_lo.index(7) == 0
        assert ev_hi.index(7) == 6

    def test_empty_world_rejected(self):
        ev = FailureEvent(time_seconds=0.0, kind="gray",
                          where_fraction=0.5, failed_attempts=0)
        with pytest.raises(ValueError):
            ev.index(0)
        with pytest.raises(ValueError):
            ev.index(-1)


class TestFixedDrawContract:
    """The determinism spine: exactly four draws per event, in a fixed
    order, regardless of taxonomy or policy."""

    def test_draw_sequence_pinned_by_manual_replay(self):
        proc = FailureProcess(mtbf_seconds=100.0, seed=7)
        events = [proc.next_failure() for _ in range(20)]
        rng = np.random.default_rng(7)
        t = 0.0
        for ev in events:
            t += rng.exponential(100.0)
            u_kind = rng.random()
            where = rng.random()
            attempts = rng.geometric(0.6)
            assert ev.time_seconds == t
            assert ev.where_fraction == where
            kind, gray_kind = FailureTaxonomy().classify(u_kind)
            assert ev.kind == kind
            assert ev.gray_kind == gray_kind
            if ev.kind == "collective_retry":
                assert ev.failed_attempts == attempts

    def test_identical_arrivals_across_taxonomies_under_one_seed(self):
        seqs = []
        for name in ("iid", "rack-correlated", "gray-heavy", "production"):
            proc = FailureProcess(mtbf_seconds=100.0, seed=3,
                                  taxonomy=TAXONOMY_PRESETS[name])
            seqs.append([(ev.time_seconds, ev.where_fraction)
                         for ev in (proc.next_failure()
                                    for _ in range(50))])
        assert all(s == seqs[0] for s in seqs[1:])

    def test_all_emitted_kinds_are_known(self):
        proc = FailureProcess(mtbf_seconds=10.0, seed=0,
                              taxonomy=TAXONOMY_PRESETS["production"])
        kinds = {proc.next_failure().kind for _ in range(400)}
        assert kinds <= set(FAILURE_KINDS)
        assert {"rack_loss", "gray", "silent_corruption"} <= kinds


class TestClusterTopology:
    def test_node_rack_pod_mapping(self):
        spec = grand_teton(16384)
        assert spec.nodes_per_rack == 8
        assert spec.racks_per_pod == 32
        racks = spec.num_nodes // spec.nodes_per_rack
        assert (racks, racks // spec.racks_per_pod) == (256, 8)

    def test_topology_validation(self):
        with pytest.raises(ValueError):
            grand_teton(16).__class__(**{
                **grand_teton(16).__dict__, "nodes_per_rack": 0})


def _run(taxonomy, *, steps=80, seed=5, mtbf=120.0, elastic=True,
         policy=None, mitigation="tolerate"):
    cfg = RunConfig(steps=steps, mtbf_seconds=mtbf,
                    policy=policy or FixedInterval(8), seed=seed,
                    elastic=elastic, taxonomy=taxonomy,
                    mitigation=mitigation)
    return simulate_run(MODEL, JOB, CLUSTER, cfg)


class TestCorrelatedDomainRuns:
    def test_rack_loss_takes_out_a_whole_rack(self):
        tax = FailureTaxonomy(node_loss_fraction=0.0, retry_fraction=0.0,
                              rack_loss_fraction=1.0)
        r = _run(tax, steps=40, seed=1, mtbf=30.0)
        assert r.counters["rack_losses"] >= 1
        assert r.counters["node_losses"] == 0
        # A rack is 8 nodes = 64 GPUs > the 32-GPU fleet: the whole job
        # dies and (elastic) truncates with no feasible plan.
        assert not r.completed

    def test_blast_radius_node_vs_rack_under_one_seed(self):
        """Same seed, same arrival times (fixed draws): reclassifying
        the fail-stop events from node to rack losses turns a survivable
        run into fleet exhaustion — 8 GPUs vs 64 per event."""
        node_tax = FailureTaxonomy(node_loss_fraction=1.0,
                                   retry_fraction=0.0)
        rack_tax = FailureTaxonomy(node_loss_fraction=0.0,
                                   retry_fraction=0.0,
                                   rack_loss_fraction=1.0)
        node_run = _run(node_tax, steps=40, seed=1, mtbf=30.0)
        rack_run = _run(rack_tax, steps=40, seed=1, mtbf=30.0)
        # Identical arrivals, different blast radii.
        assert node_run.failures[0]["time_seconds"] \
            == rack_run.failures[0]["time_seconds"]
        assert node_run.counters["node_losses"] >= 1
        assert node_run.counters["replans"] >= 1
        assert rack_run.counters["rack_losses"] >= 1
        # One rack (8 nodes x 8 GPUs) exceeds the 4-node fleet.
        assert not rack_run.completed
        assert "no feasible plan" in rack_run.truncated_reason

    def test_rack_loss_survivable_on_a_large_fleet(self):
        big_job = JobConfig(seq=8192, gbs=128, ngpu=1024)
        big_cluster = grand_teton(1024)  # 128 nodes = 16 racks
        tax = FailureTaxonomy(node_loss_fraction=0.0, retry_fraction=0.0,
                              rack_loss_fraction=1.0)
        cfg = RunConfig(steps=20, mtbf_seconds=30.0,
                        policy=FixedInterval(4), seed=3, elastic=True,
                        taxonomy=tax)
        r = simulate_run(MODEL, big_job, big_cluster, cfg)
        assert r.completed
        assert r.counters["rack_losses"] >= 1
        assert r.counters["replans"] >= 1
        assert r.segments[-1]["plan_ngpu"] < 1024
        markers = [e.name for e in r.sim.events if e.kind == "marker"]
        assert "failure:rack_loss" in markers

    def test_domains_are_the_correlated_kinds(self):
        assert CORRELATED_DOMAINS == ("node_loss", "rack_loss", "pod_loss")

    def test_gray_fault_taxes_subsequent_steps(self):
        tax = FailureTaxonomy(node_loss_fraction=0.0, retry_fraction=0.0,
                              gray_fraction=1.0)
        r = _run(tax, steps=40, seed=2, mtbf=300.0)
        clean = _run(FailureTaxonomy(node_loss_fraction=0.0,
                                     retry_fraction=0.0), steps=40,
                     seed=2, mtbf=1e9)
        assert r.counters["gray_failures"] >= 1
        assert r.buckets["gray"] > 0
        assert r.elapsed_seconds > clean.elapsed_seconds
        # Tolerated gray degradation never kills capacity.
        assert r.counters["replans"] == 0
        assert [s["plan_ngpu"] for s in r.segments] == [32]

    def test_silent_corruption_forces_rollback_past_detection(self):
        tax = FailureTaxonomy(node_loss_fraction=0.0, retry_fraction=0.0,
                              corruption_fraction=1.0)
        r = _run(tax, steps=60, seed=2, mtbf=40.0)
        assert r.counters["silent_corruptions"] >= 1
        assert r.counters["corruption_rollbacks"] >= 1
        assert r.buckets["rework"] > 0
        markers = [e.name for e in r.sim.events if e.kind == "marker"]
        assert any(m == "failure:silent_corruption" for m in markers)
        # Corruption costs time but the run still finishes.
        assert r.completed

    def test_corruption_rework_exceeds_failstop_rework(self):
        """Rollback past the validation point re-runs work a fail-stop
        crash at the same instant would have kept."""
        corrupt = _run(FailureTaxonomy(node_loss_fraction=0.0,
                                       retry_fraction=0.0,
                                       corruption_fraction=1.0),
                       steps=60, seed=2, mtbf=40.0)
        crash = _run(FailureTaxonomy(node_loss_fraction=1.0,
                                     retry_fraction=0.0),
                     steps=60, seed=2, mtbf=40.0, elastic=False)
        assert corrupt.counters["corruption_rollbacks"] >= 1
        assert crash.counters["node_losses"] >= 1
        assert corrupt.completed and crash.completed
        assert corrupt.buckets["rework"] > crash.buckets["rework"]
