"""Tiered checkpointing and the detect–mitigate loop: per-tier pricing,
the failure-domain survivability matrix (byte-stable golden), restore
tier selection under correlated failures, and the two pinned headline
comparisons — tiered beats remote-only Young/Daly under rack-correlated
failures, and detect–mitigate beats tolerate-everything under gray
failures — both exact under one seed thanks to the fixed-draw contract.

Regenerate the survivability golden after an intentional change with::

    PYTHONPATH=src python tests/test_resilience_tiered.py --regen
"""

import json
from pathlib import Path

import pytest

from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.obs.report import render_json, survivability_report
from repro.parallel.config import JobConfig
from repro.resilience import (
    TAXONOMY_PRESETS,
    DetectorModel,
    FailureTaxonomy,
    RunConfig,
    TieredCheckpoint,
    YoungDaly,
    NoCheckpoint,
    FixedInterval,
    choose_mitigation,
    parse_detector,
    parse_policy,
    parse_tiered_policy,
    simulate_run,
    survivability_matrix,
    tier_read_seconds,
    tier_survives,
    tier_write_seconds,
)
from repro.resilience.policy import shard_transfer_seconds
from repro.resilience.tiers import tier_bandwidth_per_node, tier_intervals

GOLDEN = Path(__file__).parent / "golden" / "resilience_survivability.json"

MODEL = LLAMA3_8B
JOB = JobConfig(seq=8192, gbs=32, ngpu=32)
CLUSTER = grand_teton(32)


class TestSurvivability:
    def test_matrix_shape_and_remote_always_survives(self):
        matrix = survivability_matrix()
        assert set(matrix) == {"none", "node_loss", "rack_loss",
                               "pod_loss"}
        for domain, by_tier in matrix.items():
            assert set(by_tier) == {"peer", "local", "remote"}
            assert by_tier["remote"] is True

    def test_domain_semantics(self):
        # Peer replicas live on another node in the same rack.
        assert tier_survives("peer", "node_loss")
        assert not tier_survives("peer", "rack_loss")
        assert not tier_survives("peer", "pod_loss")
        # Node-local NVMe shards die with any hardware loss.
        assert not tier_survives("local", "node_loss")
        assert tier_survives("local", "none")
        with pytest.raises(ValueError):
            tier_survives("peer", "gray")
        with pytest.raises(ValueError):
            tier_survives("tape", "node_loss")


class TestTierPricing:
    def test_cost_hierarchy_matches_the_storage_hierarchy(self):
        w = {t: tier_write_seconds(t, MODEL, CLUSTER, 32)
             for t in ("peer", "local", "remote")}
        assert w["peer"] < w["local"] < w["remote"]
        for t in ("peer", "local", "remote"):
            assert tier_read_seconds(t, MODEL, CLUSTER, 32) == w[t]

    def test_zero_payload_is_free_on_every_tier(self):
        for t in ("peer", "local", "remote"):
            assert shard_transfer_seconds(
                0.0, 4, tier_bandwidth_per_node(t, CLUSTER)) == 0.0

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            tier_write_seconds("tape", MODEL, CLUSTER, 32)


class TestTieredPolicy:
    def test_parse_auto(self):
        policy = parse_policy("tiered:auto")
        assert isinstance(policy, TieredCheckpoint)
        assert [t for t, _ in policy.tiers] == ["peer", "local",
                                                "remote"]
        assert all(isinstance(p, YoungDaly) for _, p in policy.tiers)

    def test_parse_explicit_intervals(self):
        policy = parse_tiered_policy("tiered:peer=2,remote=young-daly")
        by_tier = dict(policy.tiers)
        assert isinstance(by_tier["peer"], FixedInterval)
        assert by_tier["peer"].every_steps == 2
        assert isinstance(by_tier["remote"], YoungDaly)
        assert "local" not in by_tier

    @pytest.mark.parametrize("bad", [
        "tiered:", "tiered:bogus", "tiered:tape=3",
        "tiered:peer=2,peer=3", "tiered:peer=0",
        "tiered:peer=none,remote=none",
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_policy(bad)

    def test_all_none_rejected(self):
        with pytest.raises(ValueError):
            TieredCheckpoint(tiers=(("peer", NoCheckpoint()),))

    def test_tier_intervals_follow_tier_costs(self):
        policy = parse_policy("tiered:auto")
        writes = {t: tier_write_seconds(t, MODEL, CLUSTER, 32)
                  for t in ("peer", "local", "remote")}
        intervals = tier_intervals(policy, 1.0, writes, 150.0)
        # Cheaper tiers checkpoint at least as often as pricier ones.
        assert intervals["peer"] <= intervals["local"] \
            <= intervals["remote"]
        assert all(v >= 1 for v in intervals.values())
        # A single-tier policy is the remote tier alone.
        assert tier_intervals(YoungDaly(), 1.0, writes, 150.0) \
            == {"remote": intervals["remote"]}


def _tiered_run(taxonomy, *, policy="tiered:auto", seed=3, steps=120,
                mtbf=60.0, mitigation="tolerate"):
    cfg = RunConfig(steps=steps, mtbf_seconds=mtbf,
                    policy=parse_policy(policy), seed=seed,
                    elastic=False, replacement_seconds=60.0,
                    taxonomy=taxonomy, mitigation=mitigation)
    return simulate_run(MODEL, JOB, CLUSTER, cfg)


class TestTieredRuns:
    def test_node_loss_restores_from_the_peer_tier(self):
        tax = FailureTaxonomy(node_loss_fraction=1.0, retry_fraction=0.0)
        r = _tiered_run(tax, seed=2, mtbf=40.0)
        assert r.counters["node_losses"] >= 1
        assert r.restores, "expected at least one restore"
        node_restores = [x for x in r.restores
                         if x["domain"] == "node_loss"]
        assert node_restores
        # Restores come from the newest surviving record; the local
        # tier never survives a node loss.
        assert all(x["tier"] in ("peer", "remote")
                   for x in node_restores)
        assert any(x["tier"] == "peer" for x in node_restores)

    def test_rack_loss_falls_back_to_remote(self):
        tax = FailureTaxonomy(node_loss_fraction=0.0, retry_fraction=0.0,
                              rack_loss_fraction=1.0)
        r = _tiered_run(tax, seed=2, mtbf=40.0)
        assert r.counters["rack_losses"] >= 1
        rack_restores = [x for x in r.restores
                         if x["domain"] == "rack_loss"]
        assert rack_restores
        assert all(x["tier"] in ("remote", "none")
                   for x in rack_restores)

    def test_tier_writes_are_counted_and_priced(self):
        tax = FailureTaxonomy(node_loss_fraction=0.0, retry_fraction=0.0)
        r = _tiered_run(tax, seed=1, mtbf=150.0, steps=60)
        assert r.tier_writes["peer"] >= r.tier_writes["remote"] >= 1
        assert set(r.tier_intervals) == {"peer", "local", "remote"}
        names = [e.name for e in r.sim.events]
        assert any(n.startswith("checkpoint:peer:") for n in names)
        assert any(n.startswith("checkpoint:remote:") for n in names)


class TestHeadlinePins:
    """The two pinned single-seed comparisons from the issue.  Exact
    comparisons are meaningful because the fixed-draw contract gives
    every arm the same failure sequence."""

    def test_tiered_beats_remote_only_young_daly_under_rack_failures(self):
        kwargs = dict(steps=200, mtbf_seconds=150.0, seed=3,
                      elastic=False, replacement_seconds=60.0,
                      taxonomy=TAXONOMY_PRESETS["rack-correlated"])
        remote_only = simulate_run(
            MODEL, JOB, CLUSTER,
            RunConfig(policy=YoungDaly(), **kwargs))
        tiered = simulate_run(
            MODEL, JOB, CLUSTER,
            RunConfig(policy=parse_policy("tiered:auto"), **kwargs))
        assert remote_only.completed and tiered.completed
        assert remote_only.counters["restarts"] >= 1
        assert tiered.goodput_fraction > remote_only.goodput_fraction
        # Pin both sides so a silent regression in either arm shows up.
        assert tiered.goodput_fraction \
            == pytest.approx(0.24052300127174123, rel=1e-9)
        assert remote_only.goodput_fraction \
            == pytest.approx(0.23252861719207876, rel=1e-9)

    def test_detect_mitigate_beats_tolerate_under_gray_failures(self):
        kwargs = dict(steps=300, mtbf_seconds=150.0, seed=2,
                      elastic=False, replacement_seconds=30.0,
                      restart_overhead_seconds=30.0,
                      policy=YoungDaly(),
                      taxonomy=TAXONOMY_PRESETS["gray-heavy"])
        tolerate = simulate_run(
            MODEL, JOB, CLUSTER,
            RunConfig(mitigation="tolerate", **kwargs))
        detect = simulate_run(
            MODEL, JOB, CLUSTER,
            RunConfig(mitigation="detect", **kwargs))
        assert tolerate.completed and detect.completed
        assert tolerate.counters["gray_failures"] >= 2
        assert detect.counters["evictions"] >= 1
        assert detect.counters["gray_detected"] >= 1
        assert tolerate.counters["evictions"] == 0
        assert detect.goodput_fraction > tolerate.goodput_fraction
        assert detect.goodput_fraction \
            == pytest.approx(0.5025755764288214, rel=1e-9)
        assert tolerate.goodput_fraction \
            == pytest.approx(0.3745840619433828, rel=1e-9)
        # Eviction trades a bounded fixed cost for an unbounded tax.
        assert detect.buckets["gray"] < tolerate.buckets["gray"]
        evict_decisions = [m for m in detect.mitigations
                           if m["decision"] == "evict"]
        assert evict_decisions
        for m in evict_decisions:
            assert m["projected_evict_seconds"] \
                < m["projected_tolerate_seconds"]
            assert m["localised"] is True


class TestDetectorModel:
    def test_latency_gates_detection(self):
        det = DetectorModel(latency_steps=3, false_negative_rate=0.0)
        rng = det.rng(0)
        assert not det.detects(0, rng)
        assert not det.detects(2, rng)
        assert det.detects(3, rng)

    def test_false_negatives_are_seeded_draws(self):
        det = DetectorModel(latency_steps=0, false_negative_rate=0.5)
        rng = det.rng(7)
        draws = [det.detects(1, rng) for _ in range(200)]
        assert 40 < sum(draws) < 160  # ~Binomial(200, 0.5)
        rng2 = det.rng(7)
        assert [det.detects(1, rng2) for _ in range(200)] == draws

    def test_false_positives(self):
        det = DetectorModel(false_positive_rate=0.99)
        rng = det.rng(0)
        assert any(det.false_alarm(rng) for _ in range(50))
        quiet = DetectorModel(false_positive_rate=0.0)
        assert not quiet.false_alarm(quiet.rng(0))

    def test_parse_detector(self):
        det = parse_detector("latency=4,fn=0.2,fp=0.05")
        assert det.latency_steps == 4
        assert det.false_negative_rate == 0.2
        assert det.false_positive_rate == 0.05
        with pytest.raises(ValueError):
            parse_detector("latency=4,bogus=1")
        with pytest.raises(ValueError):
            parse_detector("fn=1.5")

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(latency_steps=-1)
        with pytest.raises(ValueError):
            DetectorModel(false_negative_rate=1.1)


class TestChooseMitigation:
    def test_evict_only_when_strictly_cheaper(self):
        decision, tol, evict = choose_mitigation(
            tax_seconds_per_step=1.0, remaining_steps=100,
            evict_fixed_seconds=50.0, evict_extra_per_step=0.0)
        assert decision == "evict" and evict < tol

        decision, tol, evict = choose_mitigation(
            tax_seconds_per_step=0.5, remaining_steps=100,
            evict_fixed_seconds=50.0, evict_extra_per_step=0.0)
        assert decision == "tolerate" and evict == tol == 50.0

    def test_degraded_replan_tips_the_balance(self):
        decision, _, _ = choose_mitigation(
            tax_seconds_per_step=1.0, remaining_steps=100,
            evict_fixed_seconds=50.0, evict_extra_per_step=0.6)
        assert decision == "tolerate"

    def test_zero_tax_never_evicts(self):
        decision, tol, _ = choose_mitigation(
            tax_seconds_per_step=0.0, remaining_steps=100,
            evict_fixed_seconds=0.0, evict_extra_per_step=0.0)
        assert decision == "tolerate" and tol == 0.0


def _golden_payload() -> str:
    return render_json(survivability_report(MODEL, CLUSTER, 32)) + "\n"


class TestGoldenSurvivability:
    def test_report_matches_golden_bytes(self):
        assert _golden_payload() == GOLDEN.read_text(encoding="utf-8"), (
            "survivability report changed; if intentional, regenerate "
            "with `PYTHONPATH=src python tests/test_resilience_tiered.py"
            " --regen`")

    def test_golden_schema_shape(self):
        rep = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert rep["schema"] == "repro.survivability/v1"
        assert rep["survivability"] == survivability_matrix()
        scenario = rep["scenario"]
        assert scenario["ngpu"] == 32
        assert scenario["tier_write_seconds"]["peer"] \
            < scenario["tier_write_seconds"]["remote"]


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN.write_text(_golden_payload(), encoding="utf-8")
        print(f"wrote {GOLDEN}")
    else:
        print("usage: python tests/test_resilience_tiered.py --regen")
