"""The multi-step run simulator: goodput ordering, accounting invariants,
elastic replanning, and the byte-stable ``repro.resilience/v2`` golden.

The comparison scenario (8B on 32 GPUs, 200 steps, MTBF 150 s, seed 11)
is chosen so the one failure sequence exercises all three failure kinds —
a permanent node loss, a transient straggler, and collective retry
ladders — and so the Young/Daly interval strictly beats both extremes:
never checkpointing (maximum rework) and checkpointing every step
(maximum write overhead).

Regenerate the golden after an intentional schema change with::

    PYTHONPATH=src python tests/test_resilience_run.py --regen
"""

import functools
import json
from pathlib import Path

import pytest

import repro.resilience.run as run_module
from repro.faults.goodput import exposed_comm_by_stream
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_json, resilience_report
from repro.parallel.config import JobConfig
from repro.resilience import (
    BUCKETS,
    TAXONOMY_PRESETS,
    FailureTaxonomy,
    FixedInterval,
    NoCheckpoint,
    RunConfig,
    YoungDaly,
    parse_policy,
    simulate_run,
)

GOLDEN = Path(__file__).parent / "golden" / "resilience_run.json"
GOLDEN_V1 = Path(__file__).parent / "golden" / "resilience_run_v1.json"

MODEL = LLAMA3_8B
JOB = JobConfig(seq=8192, gbs=32, ngpu=32)
CLUSTER = grand_teton(32)


def _config(policy, **overrides):
    """The pinned comparison scenario; see the module docstring."""
    base = dict(steps=200, mtbf_seconds=150.0, seed=11, elastic=False,
                replacement_seconds=300.0,
                taxonomy=FailureTaxonomy(node_loss_fraction=0.35,
                                         retry_fraction=0.45))
    base.update(overrides)
    return RunConfig(policy=policy, **base)


@functools.lru_cache(maxsize=None)
def _run(policy_spec: str):
    return simulate_run(MODEL, JOB, CLUSTER, _config(parse_policy(policy_spec)))


class TestPolicyOrdering:
    def test_young_daly_beats_both_extremes(self):
        yd = _run("young-daly")
        none = _run("none")
        frequent = _run("fixed:1")
        assert yd.completed and none.completed and frequent.completed
        assert yd.goodput_fraction > none.goodput_fraction
        assert yd.goodput_fraction > frequent.goodput_fraction

    def test_extremes_fail_in_the_expected_direction(self):
        # Never checkpointing wastes rework; every-step wastes write time.
        none = _run("none")
        frequent = _run("fixed:1")
        assert none.buckets["rework"] > _run("young-daly").buckets["rework"]
        assert frequent.buckets["checkpoint"] \
            > _run("young-daly").buckets["checkpoint"]

    def test_same_seed_same_failure_sequence_across_policies(self):
        runs = [_run(s) for s in ("young-daly", "none", "fixed:1")]
        shortest = min(len(r.failures) for r in runs)
        assert shortest > 0
        strip = [
            [(f["time_seconds"], f["kind"]) for f in r.failures[:shortest]]
            for r in runs
        ]
        assert strip[0] == strip[1] == strip[2]

    def test_scenario_exercises_every_failure_kind(self):
        c = _run("young-daly").counters
        assert c["node_losses"] >= 1
        assert c["transient_stragglers"] >= 1
        assert c["retry_ladders"] >= 1


class TestAccountingInvariants:
    @pytest.mark.parametrize("spec", ["young-daly", "none", "fixed:1"])
    def test_buckets_sum_to_elapsed(self, spec):
        r = _run(spec)
        assert sum(r.buckets.values()) == pytest.approx(
            r.elapsed_seconds, rel=1e-9)
        assert set(r.buckets) == set(BUCKETS)
        assert all(v >= 0 for v in r.buckets.values())

    @pytest.mark.parametrize("spec", ["young-daly", "none", "fixed:1"])
    def test_timeline_makespan_equals_elapsed(self, spec):
        r = _run(spec)
        assert r.sim.makespan() == pytest.approx(r.elapsed_seconds, abs=1e-9)

    def test_goodput_is_committed_work_over_elapsed(self):
        r = _run("young-daly")
        assert r.goodput_fraction == pytest.approx(
            r.steps_completed * r.ideal_step_seconds / r.elapsed_seconds)
        assert 0 < r.goodput_fraction < 1
        assert r.achieved_tokens == r.steps_completed * JOB.tokens_per_step

    def test_retry_ladders_are_exposed_comm_on_the_dp_stream(self):
        r = _run("young-daly")
        assert r.counters["retry_ladders"] >= 1
        retry_tagged = [e for e in r.sim.events if "retry" in e.tags]
        assert retry_tagged and all(e.kind == "comm" for e in retry_tagged)
        assert exposed_comm_by_stream(r.sim)["dp"] == pytest.approx(
            r.buckets["retry"])

    def test_metrics_registry_mirrors_the_buckets(self):
        metrics = MetricsRegistry()
        r = simulate_run(MODEL, JOB, CLUSTER,
                         _config(YoungDaly()), metrics=metrics)
        values = metrics.get("run.seconds").values
        by_bucket = {dict(labels)["bucket"]: v
                     for labels, v in values.items()}
        for name in BUCKETS:
            assert by_bucket[name] == pytest.approx(r.buckets[name])
        assert by_bucket["elapsed"] == pytest.approx(r.elapsed_seconds)


#: Every arrival is a node loss.
NODE_LOSS_ONLY = FailureTaxonomy(node_loss_fraction=1.0, retry_fraction=0.0)


class TestElasticReplanning:
    def test_node_loss_replans_and_continues_degraded(self):
        cfg = RunConfig(steps=60, mtbf_seconds=200.0,
                        policy=FixedInterval(10), seed=2, elastic=True,
                        taxonomy=NODE_LOSS_ONLY)
        r = simulate_run(MODEL, JOB, CLUSTER, cfg)
        assert r.completed
        assert r.counters["node_losses"] >= 1
        assert r.counters["replans"] >= 1
        # The replanned fleet is smaller, node-aligned, and feasible.
        assert len(r.segments) >= 2
        shrunk = r.segments[-1]
        assert shrunk["plan_ngpu"] < JOB.ngpu
        assert shrunk["plan_ngpu"] % CLUSTER.gpus_per_node == 0
        assert shrunk["step_seconds"] > r.ideal_step_seconds
        # The throughput loss is accounted, not hidden.
        assert r.buckets["degraded"] > 0
        assert r.elapsed_seconds > r.ideal_seconds
        assert r.goodput_fraction < 1.0
        markers = [e.name for e in r.sim.events if e.kind == "marker"]
        assert any(m.startswith("replan:") for m in markers)

    def test_fleet_exhaustion_truncates_with_a_reason(self):
        cfg = RunConfig(steps=50, mtbf_seconds=5.0, policy=YoungDaly(),
                        seed=0, elastic=True, taxonomy=NODE_LOSS_ONLY)
        r = simulate_run(MODEL, JOB, CLUSTER, cfg)
        assert not r.completed
        assert "no feasible plan" in r.truncated_reason
        # Truncated in-flight work is still accounted for.
        assert sum(r.buckets.values()) == pytest.approx(
            r.elapsed_seconds, rel=1e-9)

    def test_each_distinct_plan_is_priced_once(self, monkeypatch):
        """24 and 16 GPUs both replan to the 16-GPU plan: it is priced
        once, and each capacity keeps its own segment."""
        priced = []
        price_segment = run_module._price_segment

        def counting(model, cluster, capacity_ngpu, plan):
            priced.append(capacity_ngpu)
            return price_segment(model, cluster, capacity_ngpu, plan)

        monkeypatch.setattr(run_module, "_price_segment", counting)
        cfg = RunConfig(steps=50, mtbf_seconds=5.0, policy=YoungDaly(),
                        seed=0, elastic=True, taxonomy=NODE_LOSS_ONLY)
        r = simulate_run(MODEL, JOB, CLUSTER, cfg)
        assert [(s["capacity_ngpu"], s["plan_ngpu"]) for s in r.segments] \
            == [(32, 32), (24, 16), (16, 16), (8, 8)]
        assert priced == [32, 24, 8]
        assert r.segments[1]["step_seconds"] == r.segments[2]["step_seconds"]

    def test_wait_for_replacement_keeps_the_fleet(self):
        cfg = RunConfig(steps=60, mtbf_seconds=200.0,
                        policy=FixedInterval(10), seed=2, elastic=False,
                        replacement_seconds=300.0,
                        taxonomy=NODE_LOSS_ONLY)
        r = simulate_run(MODEL, JOB, CLUSTER, cfg)
        assert r.completed
        assert r.counters["replans"] == 0
        assert len(r.segments) == 1
        assert r.buckets["waiting"] > 0
        assert r.buckets["degraded"] == 0.0

    def test_attempt_limit_truncates_hopeless_runs(self):
        cfg = RunConfig(steps=10, mtbf_seconds=0.5, policy=NoCheckpoint(),
                        seed=0, elastic=False, replacement_seconds=10.0,
                        max_step_attempts=30)
        r = simulate_run(MODEL, JOB, CLUSTER, cfg)
        assert not r.completed
        assert "gave up" in r.truncated_reason
        assert r.counters["steps_attempted"] == 30


def _golden_payload() -> str:
    return render_json(resilience_report(_run("young-daly"))) + "\n"


class TestGoldenResilienceReport:
    def test_report_matches_golden_bytes(self):
        assert _golden_payload() == GOLDEN.read_text(encoding="utf-8"), (
            "resilience report changed; if intentional, regenerate with "
            "`PYTHONPATH=src python tests/test_resilience_run.py --regen`")

    def test_golden_schema_shape(self):
        rep = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert rep["schema"] == "repro.resilience/v2"
        assert set(rep) >= {"parallel", "job", "config", "policy",
                            "interval_steps", "tier_intervals",
                            "tier_writes", "ideal_step_seconds",
                            "elapsed_seconds", "steps_completed",
                            "completed", "goodput", "buckets_seconds",
                            "counters", "failures", "segments",
                            "restores", "mitigations"}
        assert rep["completed"] is True
        assert rep["policy"]["kind"] == "young_daly"
        assert 0 < rep["goodput"]["fraction"] < 1
        assert set(rep["buckets_seconds"]) == set(BUCKETS)
        assert rep["config"]["taxonomy"]["node_loss_fraction"] == 0.35
        assert rep["config"]["mitigation"] == "tolerate"

    def test_report_is_deterministic(self):
        assert _golden_payload() == _golden_payload()


class TestReportConfig:
    def test_top_level_keys_mirror_the_taxonomy(self):
        # A non-iid preset: the v1 top-level keys must not fall back to
        # the iid defaults (0.4 / 0.3) while ``taxonomy`` says otherwise.
        tax = TAXONOMY_PRESETS["production"]
        r = simulate_run(MODEL, JOB, CLUSTER, RunConfig(
            steps=5, mtbf_seconds=150.0, seed=11, taxonomy=tax))
        cfg = resilience_report(r)["config"]
        for key in ("node_loss_fraction", "retry_fraction",
                    "retry_success_p"):
            assert cfg[key] == cfg["taxonomy"][key] == getattr(tax, key)
        assert cfg["node_loss_fraction"] != 0.4


def _subset_equal(old, new, path=""):
    """Every value in ``old`` must appear bit-identically in ``new``;
    ``new`` may add dict keys (but never list elements)."""
    problems = []
    if isinstance(old, dict):
        if not isinstance(new, dict):
            return [f"{path}: dict became {type(new).__name__}"]
        for key, value in old.items():
            if key not in new:
                problems.append(f"{path}/{key}: missing")
            else:
                problems += _subset_equal(value, new[key], f"{path}/{key}")
    elif isinstance(old, list):
        if not isinstance(new, list) or len(new) != len(old):
            return [f"{path}: list changed shape"]
        for i, value in enumerate(old):
            problems += _subset_equal(value, new[i], f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        problems.append(f"{path}: {old!r} -> {new!r}")
    return problems


class TestLegacyEquivalence:
    """The v2 schema is strictly additive over the archived v1 golden:
    a legacy iid / fail-stop / remote-only config reproduces every v1
    number bit-for-bit."""

    def test_v2_report_reproduces_v1_numbers_exactly(self):
        old = json.loads(GOLDEN_V1.read_text(encoding="utf-8"))
        new = json.loads(GOLDEN.read_text(encoding="utf-8"))
        old.pop("schema")  # the one intentional change
        problems = _subset_equal(old, new)
        assert not problems, "\n".join(problems)

    def test_v1_archive_is_frozen(self):
        old = json.loads(GOLDEN_V1.read_text(encoding="utf-8"))
        assert old["schema"] == "repro.resilience/v1"
        assert old["elapsed_seconds"] == 735.5540104127776
        # The archive itself must never be regenerated: its bytes are
        # the contract that v2 additions stay additive.
        assert "tier_intervals" not in old
        assert "gray" not in old["buckets_seconds"]


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN.write_text(_golden_payload(), encoding="utf-8")
        print(f"wrote {GOLDEN}")
    else:
        print("usage: python tests/test_resilience_run.py --regen")
