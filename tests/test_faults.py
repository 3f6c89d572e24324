"""Fault models, both injection paths, goodput, and the golden report.

Covers the `repro.faults` subsystem end to end: the duration-modifier
chain (including collective max-semantics and "faulted" tagging),
the declarative fault models and their CLI spec parser, injection into
the synthetic workload and into the lowered step graph, the goodput
comparison, and a byte-stable golden for ``repro faults --json``.

Regenerate the golden after an intentional schema change with::

    PYTHONPATH=src python tests/test_faults.py --regen
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.faults import (
    FAULT_PRESETS,
    CollectiveRetry,
    ComputeStraggler,
    DegradedLink,
    FaultPlan,
    HungRank,
    PeriodicJitter,
    apply_fault_plan,
    fault_preset,
    parse_fault_spec,
    run_goodput,
)
from repro.debug.workload import join_collective
from repro.faults.models import perturb_duration
from repro.sim.collectives import DEFAULT_COLLECTIVE_TIMEOUT_SECONDS
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import faults_report, render_json
from repro.parallel.config import JobConfig, ParallelConfig
from repro.parallel.mesh import DeviceMesh
from repro.sim.engine import Simulator
from repro.train.lowering import StepOpKind
from repro.train.step import simulate_step

GOLDEN = Path(__file__).parent / "golden" / "faults_8gpu.json"
#: Float-hex timelines captured from the retired per-rank ``slowdown=``
#: and ``rank_compute_scale=`` knobs, which a straggler fault plan now
#: replaces bit for bit.
FAULT_PATHS_GOLDEN = Path(__file__).parent / "golden" / "fault_paths.json"

MESH_8 = DeviceMesh(ParallelConfig(tp=4, cp=2))


def _on_rank(target, fn):
    """A modifier applying ``fn`` to ``target``'s durations only."""
    return lambda rank, stream, kind, name, d: fn(d) if rank == target else d


class TestDurationModifiers:
    """The modifier chain (``perturb_duration``) and how the synthetic
    workload's collectives (``join_collective``) apply it."""

    def test_modifier_stretches_matching_run(self):
        slow_1 = _on_rank(1, lambda d: d + 1.0)
        assert perturb_duration([slow_1], 0, "compute", "compute", "op",
                                1.0) == (1.0, ())
        assert perturb_duration([slow_1], 1, "compute", "compute", "op",
                                1.0) == (2.0, (0,))

    def test_faulted_tag_only_on_changed_events(self):
        double_1 = _on_rank(1, lambda d: d * 2)
        sim = Simulator()
        sim.run(0, "compute", 1.0, "w0")
        sim.run(1, "compute", 1.0, "w1")
        events = join_collective(sim, [0, 1], "compute", 1.0, "op",
                                 [double_1])
        assert events[0].tags == () and events[1].tags == ("faulted",)

    def test_modifiers_chain_in_registration_order(self):
        chain = [lambda r, s, k, n, d: d + 1.0,
                 lambda r, s, k, n, d: d * 2.0]
        assert perturb_duration(chain, 0, "compute", "compute", "op",
                                1.0) == (4.0, (0, 1))
        assert perturb_duration(chain[::-1], 0, "compute", "compute", "op",
                                1.0) == (3.0, (0, 1))

    def test_collective_takes_max_of_modified_durations(self):
        """One degraded participant slows the whole collective; only the
        perturbed rank is tagged."""
        sim = Simulator()
        events = join_collective(sim, [0, 1, 2], "compute", 0.5, "tp:ag",
                                 [_on_rank(1, lambda d: d * 3)])
        assert all(e.end == 1.5 for e in events)
        assert events[1].tags == ("faulted",)
        assert events[0].tags == () and events[2].tags == ()

    def test_negative_modified_duration_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            perturb_duration([lambda r, s, k, n, d: d - 5.0], 0, "compute",
                             "compute", "op", 1.0)

    def test_explicit_tags_pass_through(self):
        sim = Simulator()
        e = sim.run(0, "compute", 1.0, "op", tags=("custom",))
        assert e.tags == ("custom",)


class TestFaultModels:
    def test_straggler_validation(self):
        with pytest.raises(ValueError):
            ComputeStraggler(rank=0, extra_seconds=0.0, scale=1.0)
        with pytest.raises(ValueError):
            ComputeStraggler(rank=-1)

    def test_link_needs_exactly_one_scope(self):
        with pytest.raises(ValueError):
            DegradedLink(dim="tp")
        with pytest.raises(ValueError):
            DegradedLink(dim="tp", group=0, rank=1)
        with pytest.raises(ValueError):
            DegradedLink(dim="nope", group=0)

    def test_link_group_resolves_mesh_ranks(self):
        fault = DegradedLink(dim="tp", group=1, scale=2.0)
        assert fault.affected_ranks(MESH_8) == frozenset({4, 5, 6, 7})

    def test_hung_rank_fires_once_capped_by_timeout(self):
        fault = HungRank(rank=0, hang_seconds=5.0, timeout_seconds=2.0)
        state = fault.fresh_state()
        assert fault.perturb(1.0, state) == 3.0  # min(5, 2) extra
        assert fault.perturb(1.0, state) == 1.0  # healthy afterwards

    def test_hung_rank_defaults_to_the_shared_watchdog_timeout(self):
        """``timeout_seconds=None`` means the collective watchdog default
        — the same constant the retry ladder's attempts time out at."""
        fault = HungRank(rank=0, hang_seconds=1e9)
        assert (fault.effective_timeout_seconds
                == DEFAULT_COLLECTIVE_TIMEOUT_SECONDS)
        assert fault.stall_seconds == DEFAULT_COLLECTIVE_TIMEOUT_SECONDS
        state = fault.fresh_state()
        assert fault.perturb(1.0, state) \
            == 1.0 + DEFAULT_COLLECTIVE_TIMEOUT_SECONDS
        # A hang shorter than the watchdog is not stretched to it.
        short = HungRank(rank=0, hang_seconds=0.25)
        assert short.stall_seconds == 0.25

    def test_periodic_jitter_hits_every_period(self):
        fault = PeriodicJitter(rank=0, period=2, extra_seconds=0.1)
        state = fault.fresh_state()
        hits = [fault.perturb(1.0, state) for _ in range(4)]
        assert hits == [1.1, 1.0, 1.1, 1.0]

    def test_collective_retry_heals_after_n(self):
        fault = CollectiveRetry(dim="tp", retries=2, extra_seconds=0.05)
        state = fault.fresh_state()
        assert fault.perturb(1.0, state) == 1.05
        assert fault.perturb(1.0, state) == 1.05
        assert fault.perturb(1.0, state) == 1.0

    def test_plan_validates_ranks_against_mesh(self):
        plan = FaultPlan((ComputeStraggler(rank=99),))
        with pytest.raises(ValueError, match="outside world"):
            plan.validate(MESH_8)

    def test_expected_detection_unambiguous_compute_culprit(self):
        plan = FaultPlan((ComputeStraggler(rank=3),
                          DegradedLink(dim="tp", group=0, scale=2.0)))
        assert plan.expected_detection() == (3, "compute")
        two = FaultPlan((ComputeStraggler(rank=3), ComputeStraggler(rank=4)))
        assert two.expected_detection() == (None, None)


class TestSpecParser:
    def test_round_trips_every_type(self):
        cases = {
            "straggler:rank=6,extra=0.5": ComputeStraggler(6, 0.5),
            "straggler:rank=2,scale=1.5,extra=0": ComputeStraggler(
                2, 0.0, 1.5),
            "link:dim=tp,group=0,scale=2.0": DegradedLink("tp", 2.0, 0),
            "link:dim=dp,rank=3,scale=1.5": DegradedLink(
                "dp", 1.5, rank=3),
            "hang:rank=2,seconds=5,timeout=2": HungRank(2, 5.0, 2.0),
            "jitter:rank=1,period=2,extra=0.05": PeriodicJitter(
                1, 2, 0.05),
            "retry:dim=cp,retries=2,extra=0.05": CollectiveRetry(
                "cp", 2, 0.05),
        }
        for spec, expected in cases.items():
            assert parse_fault_spec(spec) == expected

    @pytest.mark.parametrize("bad", [
        "bogus:rank=1",
        "straggler:wat=1",
        "straggler:rank",
        "straggler:rank=xx",
        "link:dim=tp",            # missing scope
        "hang:rank=1,seconds=-1",
    ])
    def test_malformed_specs_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    @pytest.mark.parametrize("spec", [
        "straggler:rank=6,extra=0.5",
        "link:dim=tp,group=0,scale=2.0",
        "hang:rank=2,seconds=5,timeout=2",
        "hang:rank=2,seconds=5",        # default watchdog timeout
        "jitter:rank=1,period=2,extra=0.05",
        "retry:dim=cp,retries=2,extra=0.05",
        "hotexpert:rank=3,imbalance=2.5,capacity=1.5",
    ])
    def test_spec_to_dict_round_trips(self, spec):
        """The dicts in ``repro faults --json`` reports name the kind and
        carry every field, so they rebuild the exact fault, derived
        fields (e.g. ``stall_seconds``) notwithstanding."""
        fault = parse_fault_spec(spec)
        assert _rebuild(fault.to_dict(), type(fault)) == fault


def _rebuild(data, cls):
    assert data["kind"] == cls.kind_label
    return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls)})


class TestFaultPresets:
    def test_straggler_default_matches_the_cli_scenario(self):
        """The preset is the former hard-coded ``repro faults`` default:
        a 25%-throttled GPU on the second-to-last rank."""
        plan = fault_preset("straggler-default", 8)
        assert plan.faults == (
            ComputeStraggler(rank=6, extra_seconds=0.0, scale=1.25),)

    def test_preset_scales_with_world_size(self):
        assert fault_preset("straggler-default", 32).faults[0].rank == 30
        assert fault_preset("straggler-default", 1).faults[0].rank == 0

    def test_registry_is_consistent(self):
        assert "straggler-default" in FAULT_PRESETS
        for name in FAULT_PRESETS:
            assert fault_preset(name, 8).faults

    def test_unknown_preset_and_bad_world_size_rejected(self):
        with pytest.raises(ValueError, match="unknown fault preset"):
            fault_preset("nope", 8)
        with pytest.raises(ValueError):
            fault_preset("straggler-default", 0)


class TestWorkloadInjection:
    def test_straggler_plan_matches_golden_slowdown_timelines(self):
        """A padding straggler reproduces the retired ``slowdown=`` knob's
        timelines bitwise (Figure 8 and a 512-GPU 4D mesh): every event's
        start and end, in submission order.  Only the tags differ — the
        plan marks the slowed compute ``faulted``."""
        from repro.debug.workload import WorkloadSpec, run_synthetic_workload

        golden = json.loads(FAULT_PATHS_GOLDEN.read_text())
        for case in golden["workloads"]:
            plan = FaultPlan((ComputeStraggler(
                rank=case["rank"], extra_seconds=case["extra_seconds"]),))
            sim = run_synthetic_workload(
                DeviceMesh(ParallelConfig(**case["parallel"])),
                WorkloadSpec(**case["spec"]), faults=plan)
            events = sim.events
            assert len(events) == case["n_events"], case["name"]
            times = [float.fromhex(h) for h in case["times"]]
            expected = [times[i] for i in case["events"]]
            actual = [t for e in events for t in (e.start, e.end)]
            assert actual == expected, case["name"]
            faulted = {e.rank for e in events if "faulted" in e.tags}
            assert faulted == {case["rank"]}, case["name"]

    def test_degraded_link_stretches_only_its_dim(self):
        from repro.debug.workload import run_synthetic_workload

        plan = FaultPlan((DegradedLink(dim="tp", group=0, scale=3.0),))
        healthy = run_synthetic_workload(MESH_8)
        faulted = run_synthetic_workload(MESH_8, faults=plan)

        def payload_seconds(sim, prefix):
            """Sum of per-instance payload times (min member duration),
            which excludes join-skew waiting."""
            instances = {}
            for e in sim.events:
                if e.kind == "comm" and e.name.startswith(prefix):
                    key = (e.name, e.end, e.group)
                    cur = instances.get(key)
                    instances[key] = (e.duration if cur is None
                                      else min(cur, e.duration))
            return sum(instances.values())

        assert payload_seconds(faulted, "tp:") > payload_seconds(healthy, "tp:")
        assert payload_seconds(faulted, "cp:") == pytest.approx(
            payload_seconds(healthy, "cp:"))


class TestStepGraphInjection:
    JOB = JobConfig(seq=8192, gbs=8, ngpu=8)
    PAR = ParallelConfig(tp=2, cp=2, pp=2, dp=1)

    def _graph(self):
        rep = simulate_step(LLAMA3_8B, self.PAR, self.JOB,
                            grand_teton(self.JOB.ngpu))
        return rep.execution.graph

    def test_straggler_scales_only_victim_stage_compute(self):
        graph = self._graph()
        mesh = DeviceMesh(self.PAR)
        victim = 6  # pp coordinate 1
        plan = FaultPlan((ComputeStraggler(rank=victim, extra_seconds=0.0,
                                           scale=2.0),))
        faulted, report = apply_fault_plan(graph, plan, mesh)
        by_uid = graph.by_uid()
        stage = mesh.coord_of(victim).pp
        compute_kinds = (StepOpKind.COMPUTE, StepOpKind.OPTIMIZER)
        for op in faulted.ops():
            old = by_uid[op.uid]
            if op.kind in compute_kinds and op.rank == stage:
                assert op.duration == pytest.approx(2 * old.duration)
                if old.duration > 0:
                    assert op.uid in report.faulted_uids
            else:
                assert op.duration == old.duration
        assert report.ops_faulted > 0
        assert report.extra_seconds > 0

    def test_input_graph_untouched_and_structure_preserved(self):
        graph = self._graph()
        plan = FaultPlan((ComputeStraggler(rank=0, extra_seconds=0.001),))
        before = [op.duration for op in graph.ops()]
        faulted, _ = apply_fault_plan(graph, plan, DeviceMesh(self.PAR))
        assert [op.duration for op in graph.ops()] == before
        assert [(op.uid, op.kind, op.deps) for op in faulted.ops()] == \
            [(op.uid, op.kind, op.deps) for op in graph.ops()]

    def test_unperturbed_ops_are_shared_not_copied(self):
        """The rewrite replaces only the ops it perturbs; every other op of
        the faulted graph is the healthy graph's own (immutable) object."""
        graph = self._graph()
        plan = FaultPlan((ComputeStraggler(rank=0, extra_seconds=0.001),))
        healthy = list(graph.ops())
        faulted, report = apply_fault_plan(graph, plan, DeviceMesh(self.PAR))
        assert list(graph.ops()) == healthy
        assert report.ops_faulted > 0
        for before, after in zip(healthy, faulted.ops()):
            if before.uid in report.faulted_uids:
                assert after is not before
                assert after._replace(duration=before.duration) == before
            else:
                assert after is before

    def test_step_ops_are_immutable(self):
        op = next(self._graph().ops())
        with pytest.raises(AttributeError):
            op.duration = 0.0
        with pytest.raises(AttributeError):
            op.deps = ()

    def test_link_fault_on_missing_dim_matches_nothing(self):
        graph = self._graph()
        plan = FaultPlan((DegradedLink(dim="dp", rank=0, scale=2.0),))
        _, report = apply_fault_plan(graph, plan, DeviceMesh(self.PAR))
        # dp=1 here: the graph's fsdp ops still match the dp prefixes.
        assert report.ops_faulted_per_fault == (report.ops_faulted,)

    def test_simulate_step_tags_and_counts_faulted_ops(self):
        metrics = MetricsRegistry()
        plan = FaultPlan((ComputeStraggler(rank=6, extra_seconds=0.0,
                                           scale=1.5),))
        rep = simulate_step(LLAMA3_8B, self.PAR, self.JOB,
                            grand_teton(self.JOB.ngpu),
                            metrics=metrics, fault_plan=plan)
        assert rep.fault_injection is not None
        tagged = [e for e in rep.run.sim.events if "faulted" in e.tags]
        assert len(tagged) == rep.fault_injection.ops_faulted
        counter = metrics.get("faults.injected_ops")
        assert sum(counter.values.values()) == len(tagged)

    def test_faulted_step_is_slower(self):
        healthy = simulate_step(LLAMA3_8B, self.PAR, self.JOB,
                                grand_teton(self.JOB.ngpu))
        plan = FaultPlan((ComputeStraggler(rank=6, extra_seconds=0.0,
                                           scale=1.5),))
        faulted = simulate_step(LLAMA3_8B, self.PAR, self.JOB,
                                grand_teton(self.JOB.ngpu),
                                fault_plan=plan)
        assert faulted.step_seconds > healthy.step_seconds


def _golden_goodput():
    """The CLI's default scenario: 8b on 8 GPUs, rank 6 throttled 25%."""
    job = JobConfig(seq=8192, gbs=8, ngpu=8)
    par = ParallelConfig(tp=2, cp=2, pp=2, dp=1)
    plan = FaultPlan((ComputeStraggler(rank=6, extra_seconds=0.0,
                                       scale=1.25),))
    gp = run_goodput(LLAMA3_8B, par, job, grand_teton(job.ngpu), plan=plan)
    return gp, par, job


def _golden_payload() -> str:
    gp, par, job = _golden_goodput()
    return render_json(faults_report(gp, par, job)) + "\n"


class TestGoodput:
    def test_goodput_below_one_and_inflation_above(self):
        gp, _, _ = _golden_goodput()
        assert 0 < gp.goodput_fraction < 1
        assert gp.step_time_inflation > 1
        assert gp.faulted.mfu < gp.healthy.mfu

    def test_detection_closes_the_loop(self):
        gp, _, _ = _golden_goodput()
        assert gp.detection is not None
        assert gp.detection.exact_hit
        assert gp.detection.attribution == "compute"

    def test_exposed_comm_delta_nonnegative_where_it_matters(self):
        gp, _, _ = _golden_goodput()
        delta = gp.exposed_comm_delta_seconds
        # The straggler's cost must surface somewhere on the timeline.
        assert sum(delta.values()) > 0

    def test_empty_plan_rejected(self):
        job = JobConfig(seq=8192, gbs=8, ngpu=8)
        par = ParallelConfig(tp=2, cp=2, pp=2, dp=1)
        with pytest.raises(ValueError, match="non-empty"):
            run_goodput(LLAMA3_8B, par, job, grand_teton(job.ngpu),
                        plan=FaultPlan(()))


class TestGoldenFaultsReport:
    def test_report_matches_golden_bytes(self):
        assert _golden_payload() == GOLDEN.read_text(encoding="utf-8"), (
            "faults report changed; if intentional, regenerate with "
            "`PYTHONPATH=src python tests/test_faults.py --regen`")

    def test_golden_schema_shape(self):
        rep = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert rep["schema"] == "repro.faults/v2"
        assert set(rep) >= {"parallel", "job", "plan", "faults",
                            "injection", "healthy", "faulted", "goodput",
                            "exposed_comm_delta_seconds", "detection"}
        assert rep["detection"]["exact_hit"] is True
        assert 0 < rep["goodput"]["fraction"] < 1

    def test_report_is_deterministic(self):
        assert _golden_payload() == _golden_payload()


class TestInjectionReportShape:
    def test_tags_by_uid_marks_every_faulted_op(self):
        job = JobConfig(seq=8192, gbs=8, ngpu=8)
        par = ParallelConfig(tp=2, cp=2, pp=2, dp=1)
        rep = simulate_step(LLAMA3_8B, par, job, grand_teton(job.ngpu))
        plan = FaultPlan((HungRank(rank=0, hang_seconds=0.3),))
        faulted, inj = apply_fault_plan(rep.execution.graph, plan,
                                        DeviceMesh(par))
        assert inj.ops_faulted == 1  # one-shot hang: exactly one op
        assert set(inj.tags_by_uid) == set(inj.faulted_uids)
        assert all(t == ("faulted",) for t in inj.tags_by_uid.values())
        assert inj.extra_seconds == pytest.approx(0.3)

    def test_dataclass_replace_keeps_frozen_ops(self):
        fault = ComputeStraggler(rank=1, extra_seconds=0.5)
        clone = dataclasses.replace(fault, rank=2)
        assert clone.rank == 2 and fault.rank == 1


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(_golden_payload(), encoding="utf-8")
        print(f"wrote {GOLDEN}")
    else:
        print(__doc__)
