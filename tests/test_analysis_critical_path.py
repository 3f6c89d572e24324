"""Tests for critical-path extraction: the exact makespan invariant,
slack semantics, and the invariant-suite integration."""

import pytest

from repro.analysis.critical_path import extract_critical_path
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.obs.metrics import record_critical_path_metrics
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage
from repro.train.step import simulate_step
from repro.verify.invariants import run_step_invariants


def _step(nc=None, pp=2, dp=2, gbs=8, zero=2, fault_plan=None):
    par = ParallelConfig(tp=2, cp=1, pp=pp, dp=dp, zero=ZeroStage(zero))
    job = JobConfig(seq=8192, gbs=gbs, ngpu=par.world_size)
    return simulate_step(LLAMA3_8B, par, job, grand_teton(job.ngpu),
                         nc=nc, fault_plan=fault_plan)


def _extract(rep):
    return extract_critical_path(rep.execution.graph, rep.execution.events,
                                 makespan=rep.step_seconds)


class TestExactness:
    """The chain tiles [0, makespan] with bitwise-contiguous links."""

    def setup_method(self):
        self.rep = _step()
        self.cp = _extract(self.rep)

    def test_exact_flag(self):
        assert self.cp.exact

    def test_starts_at_origin(self):
        assert self.cp.entries[0].start == 0.0
        assert self.cp.entries[0].via == "origin"

    def test_links_bitwise_contiguous(self):
        for prev, cur in zip(self.cp.entries, self.cp.entries[1:]):
            assert cur.start == prev.end  # exact float equality
            assert cur.via in ("dep", "stream")

    def test_ends_at_step_makespan(self):
        assert self.cp.entries[-1].end == self.rep.step_seconds

    def test_path_seconds_equals_makespan(self):
        assert self.cp.path_seconds == self.rep.step_seconds

    def test_stream_decomposition_sums_to_path(self):
        total = sum(self.cp.seconds_by_stream.values())
        assert total == pytest.approx(self.cp.path_seconds)

    def test_path_ops_have_negligible_slack(self):
        # Float dust from the latest-finish arithmetic only.
        for e in self.cp.entries:
            assert 0.0 <= e.slack <= 1e-9

    def test_slack_covers_every_executed_op(self):
        assert set(self.cp.slack_by_uid) == set(self.rep.execution.events)
        assert all(s >= 0.0 for s in self.cp.slack_by_uid.values())

    def test_near_critical_excludes_path_ops(self):
        on_path = {e.uid for e in self.cp.entries}
        assert all(e.uid not in on_path for e in self.cp.near_critical)
        slacks = [e.slack for e in self.cp.near_critical]
        assert slacks == sorted(slacks)


class TestNcPinMatrix:
    """Critical-path-vs-makespan agreement across nc in {1, pp-1, pp,
    nmb} — mirroring the warm-up pins (pp=4, nmb=12)."""

    @pytest.mark.parametrize("nc", [1, 3, 4, 12])
    def test_exact_across_round_sizes(self, nc):
        rep = _step(nc=nc, pp=4, dp=1, gbs=12)
        cp = _extract(rep)
        assert cp.exact
        assert cp.entries[0].start == 0.0
        for prev, cur in zip(cp.entries, cp.entries[1:]):
            assert cur.start == prev.end
        assert cp.entries[-1].end == rep.step_seconds


class TestFaultedGraph:
    def test_exact_under_fault_plan(self):
        from repro.faults import FaultPlan, parse_fault_spec

        plan = FaultPlan((parse_fault_spec("straggler:rank=2,extra=0.25"),))
        rep = _step(fault_plan=plan)
        cp = _extract(rep)
        assert cp.exact
        assert cp.entries[-1].end == rep.step_seconds
        # The straggler dominates: the path runs through compute.
        assert cp.share_by_stream["compute"] > 0.9


class TestInvariantSuite:
    def test_run_step_invariants_includes_check(self):
        rep = _step()
        report = run_step_invariants(rep.execution.graph,
                                     rep.execution.events)
        assert "critical-path-makespan" in report.checks_run
        assert not [v for v in report.violations
                    if v.check == "critical-path-makespan"]

    def test_check_flags_tampered_timeline(self):
        from repro.verify.invariants import check_critical_path_makespan

        rep = _step()
        events = dict(rep.execution.events)
        # Shift the terminal event later: the chain can no longer reach it
        # through contiguous links.
        uid = max(events, key=lambda u: events[u].end)
        events[uid] = events[uid].replace(start=events[uid].start + 0.5,
                                          end=events[uid].end + 0.5)
        violations = check_critical_path_makespan(rep.execution.graph, events)
        assert violations
        assert all(v.check == "critical-path-makespan" for v in violations)


class TestEmptyAndDegenerate:
    def test_empty_events(self):
        rep = _step()
        cp = extract_critical_path(rep.execution.graph, {})
        assert cp.entries == ()
        assert cp.n_ops == 0
        assert cp.path_seconds == 0.0

    def test_to_dict_bounds_lists(self):
        cp = _extract(_step())
        d = cp.to_dict(top=3)
        assert len(d["top_entries"]) == 3
        assert len(d["near_critical"]) <= 3
        assert d["exact"] is True
        assert d["n_ops"] == cp.n_ops


class TestMetricsHook:
    def test_record_critical_path_metrics(self):
        cp = _extract(_step())
        registry = record_critical_path_metrics(cp)
        assert registry.gauge("critical_path.makespan_seconds").value() == \
            cp.makespan_seconds
        by_stream = cp.seconds_by_stream
        for stream, seconds in by_stream.items():
            assert registry.gauge("critical_path.seconds").value(
                stream=stream) == pytest.approx(seconds)
            assert registry.gauge("critical_path.share").value(
                stream=stream) == pytest.approx(
                    seconds / cp.makespan_seconds)
        ops = registry.counter("critical_path.ops")
        total = sum(ops.values.values())
        assert total == cp.n_ops

    def test_rank_map_applied(self):
        cp = _extract(_step())
        registry = record_critical_path_metrics(cp, rank_map={0: 4, 1: 6})
        gauge = registry.gauge("critical_path.rank_seconds")
        labeled = {dict(k).get("rank") for k in gauge.values}
        assert labeled <= {"4", "6"}
