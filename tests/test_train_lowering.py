"""Tests for the step-graph lowering layer and the one-timeline step.

Covers the Section 7.3.1 acceptance behavior: FSDP all-gathers land on
their own simulator stream and overlap forward compute, the step time is
the timeline makespan (no scalar add-ons), and the step-graph invariant
checkers pass on clean timelines and catch tampered ones.
"""

import pytest

from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.obs.metrics import MetricsRegistry, record_comm_overlap_metrics
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage
from repro.parallel.planner import plan_parallelism
from repro.pp.analysis import default_nc
from repro.train.lowering import STREAM_OF_KIND, StepOpKind
from repro.train.step import simulate_step
from repro.verify.invariants import run_step_invariants


def _small_step(zero=ZeroStage.ZERO_2, pp=2, **kwargs):
    par = ParallelConfig(tp=2, cp=1, pp=pp,
                         dp=max(8 // (2 * pp), 1), zero=zero)
    job = JobConfig(seq=8192, gbs=8, ngpu=par.world_size)
    rep = simulate_step(LLAMA3_8B, par, job, grand_teton(par.world_size),
                        **kwargs)
    return rep, par, job


class TestFsdpOverlap:
    def test_allgather_overlaps_forward_compute(self):
        """Acceptance: in a pp=2 step, FSDP all-gather events sit on the
        ``fsdp`` stream and overlap forward compute (Section 7.3.1)."""
        rep, _, _ = _small_step(pp=2)
        execution = rep.execution
        gathers = execution.events_of_kind(StepOpKind.FSDP_ALLGATHER)
        assert gathers, "no FSDP all-gather events on the timeline"
        assert all(e.stream == "fsdp" and e.kind == "comm"
                   for e in gathers)
        computes = [
            e for e in execution.events_of_kind(StepOpKind.COMPUTE)
            if e.name.startswith("F:")
        ]
        assert any(
            ag.rank == c.rank and ag.overlaps(c)
            for ag in gathers for c in computes
        ), "no FSDP all-gather overlapped forward compute"

    def test_only_head_and_tail_exposed(self):
        """The first all-gather delays the pipeline start; everything else
        is prefetched under compute (the paper's overlap claim)."""
        rep, _, _ = _small_step(pp=2)
        assert rep.exposed_fsdp_seconds < rep.run.makespan * 0.25
        assert rep.exposed_fsdp_seconds > 0.0

    def test_zero3_regathers_per_round(self):
        rep3, par, job = _small_step(zero=ZeroStage.ZERO_3)
        rep1, _, _ = _small_step(zero=ZeroStage.ZERO_1)
        nmb = job.micro_batches(par)
        rounds = -(-nmb // default_nc(par.pp, nmb))
        per_stage_3 = len(rep3.execution.events_of_kind(
            StepOpKind.FSDP_ALLGATHER))
        per_stage_1 = len(rep1.execution.events_of_kind(
            StepOpKind.FSDP_ALLGATHER))
        assert per_stage_3 == per_stage_1 * rounds


class TestMakespanIsStepTime:
    def test_no_scalar_addons(self):
        """The step time IS the simulator makespan."""
        rep, _, _ = _small_step()
        assert rep.step_seconds == pytest.approx(rep.run.sim.makespan())

    def test_decomposition_is_exact(self):
        rep, _, _ = _small_step()
        assert rep.step_seconds == pytest.approx(
            rep.pipeline_seconds + rep.exposed_fsdp_seconds
            + rep.optimizer_seconds)

    def test_streams_by_kind(self):
        rep, _, _ = _small_step()
        for op in rep.execution.graph.ops():
            assert op.stream == STREAM_OF_KIND[op.kind]
            event = rep.execution.events[op.uid]
            assert event.stream == op.stream

    def test_mfu_and_tokens_per_second(self):
        rep, _, job = _small_step()
        assert 0.0 < rep.mfu < 1.0
        assert rep.tokens_per_second == pytest.approx(
            job.tokens_per_step / rep.step_seconds)


class TestStepInvariants:
    def _report(self, rep, par, job, zero):
        nc = default_nc(par.pp, job.micro_batches(par))
        return run_step_invariants(
            rep.execution.graph, rep.execution.events, zero=zero, nc=nc)

    @pytest.mark.parametrize(
        "zero", (ZeroStage.ZERO_1, ZeroStage.ZERO_2, ZeroStage.ZERO_3))
    def test_clean_timelines_pass(self, zero):
        rep, par, job = _small_step(zero=zero)
        inv = self._report(rep, par, job, zero)
        assert inv.ok, [v.message for v in inv.violations]
        assert "fsdp-zero-pairing" in inv.checks_run

    def test_late_allgather_caught(self):
        rep, par, job = _small_step()
        events = dict(rep.execution.events)
        uid = next(op.uid for op in rep.execution.graph.ops()
                   if op.kind is StepOpKind.FSDP_ALLGATHER)
        late = rep.step_seconds + 1.0
        events[uid] = events[uid].replace(
            start=late, end=late + events[uid].duration)
        inv = run_step_invariants(rep.execution.graph, events)
        assert not inv.ok
        assert {"fsdp-allgather-before-use", "step-dep-ordering"} <= {
            v.check for v in inv.violations}

    def test_missing_optimizer_event_caught(self):
        rep, par, job = _small_step()
        events = dict(rep.execution.events)
        uid = next(op.uid for op in rep.execution.graph.ops()
                   if op.kind is StepOpKind.OPTIMIZER)
        del events[uid]
        inv = run_step_invariants(rep.execution.graph, events)
        assert any(v.check == "step-dep-ordering" and "never executed"
                   in v.message for v in inv.violations)


class TestCommOverlapMetrics:
    def test_total_splits_into_overlapped_plus_exposed(self):
        rep, par, _ = _small_step()
        reg = record_comm_overlap_metrics(rep.run.sim)
        total = reg.gauge("comm.total_seconds")
        overlapped = reg.gauge("comm.overlapped_seconds")
        exposed = reg.gauge("comm.exposed_seconds")
        for row in total.sample_rows():
            labels = {k: v for k, v in row["labels"].items()}
            assert row["value"] == pytest.approx(
                overlapped.value(**labels) + exposed.value(**labels))

    def test_fsdp_prefetch_counted_as_overlapped(self):
        rep, par, _ = _small_step()
        reg = record_comm_overlap_metrics(rep.run.sim)
        hidden = sum(
            row["value"]
            for row in reg.gauge("comm.overlapped_seconds").sample_rows()
            if row["labels"]["stream"] == "fsdp")
        assert hidden > 0.0


class TestCostAwarePlanner:
    def test_candidates_ranked_by_simulated_tflops(self):
        job = JobConfig(seq=8192, gbs=64, ngpu=64)
        plan = plan_parallelism(LLAMA3_8B, job, grand_teton(64),
                                cost_aware=True)
        assert plan.candidates
        feasible = [c for c in plan.candidates if c.feasible]
        assert feasible, "no feasible candidate at toy scale"
        tflops = [c.tflops_per_gpu for c in feasible]
        assert tflops == sorted(tflops, reverse=True)
        best = feasible[0]
        p = plan.parallel
        assert (p.tp, p.pp, p.cp, p.dp) == (
            best.tp, best.pp, best.cp, best.dp)
        assert any("cost-aware" in line for line in plan.rationale)

    def test_default_mode_has_no_candidates(self):
        job = JobConfig(seq=8192, gbs=64, ngpu=64)
        plan = plan_parallelism(LLAMA3_8B, job, grand_teton(64))
        assert plan.candidates == []
