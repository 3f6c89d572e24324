"""Differential equivalence tests: fast engine == frozen reference.

Every workload runs through both engines; every observable — each
``TraceEvent`` field, makespans (global and per-rank), busy/idle per
stream, the indexed ``events_for`` views, overlap reports, and
``repro.analysis`` critical paths — must match the reference bitwise.
"""

from __future__ import annotations

import pytest

from repro.analysis.critical_path import extract_critical_path
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.sim.engine import Simulator
from repro.train.step import simulate_step
from tests.harness.diffing import compare_simulators, floats_identical
from tests.harness.reference_engine import ReferenceSimulator
from tests.harness.workloads import STANDARD_MESHES, wl_dp_replicas


class TestWorkloadEquivalence:
    def test_bitwise_equivalent(self, engine_pair):
        reference, fast = engine_pair
        problems = compare_simulators(reference, fast)
        assert not problems, "\n".join(problems)

    def test_workloads_are_nontrivial(self, engine_pair):
        # Guard against a harness regression silently comparing two
        # empty timelines.
        reference, _ = engine_pair
        assert len(reference.events) > 0


class TestCriticalPathEquivalence:
    @pytest.mark.parametrize(
        "name,parallel,job,ngpu", STANDARD_MESHES,
        ids=[m[0] for m in STANDARD_MESHES])
    def test_critical_paths_identical(self, name, parallel, job, ngpu):
        cluster = grand_teton(ngpu)
        ref_sim = ReferenceSimulator()
        fast_sim = Simulator()
        ref_rep = simulate_step(LLAMA3_8B, parallel, job, cluster,
                                sim=ref_sim)
        fast_rep = simulate_step(LLAMA3_8B, parallel, job, cluster,
                                 sim=fast_sim)
        ref_path = extract_critical_path(
            ref_rep.execution.graph, ref_rep.execution.events)
        fast_path = extract_critical_path(
            fast_rep.execution.graph, fast_rep.execution.events)
        assert ref_path.exact and fast_path.exact
        assert floats_identical(ref_path.makespan_seconds,
                                fast_path.makespan_seconds)
        assert ref_path.entries == fast_path.entries
        assert ref_path.near_critical == fast_path.near_critical
        assert ref_path.slack_by_uid == fast_path.slack_by_uid


class TestUnseenRankEquivalence:
    """A rank with no events reads the same on both engines."""

    def test_unseen_rank_matches_reference(self):
        reference, fast = ReferenceSimulator(), Simulator()
        wl_dp_replicas(reference)
        wl_dp_replicas(fast)
        # The workload covers ranks 0..31; neither of these ever ran.
        for rank in (32, 99):
            assert fast.events_for(rank) == reference.events_for(rank) == []
            assert fast.events_for(rank, stream="tp", kind="comm") == []
            for check, ref_v, fast_v in (
                ("makespan", reference.makespan([rank]),
                 fast.makespan([rank])),
                ("now", reference.now(rank, "compute"),
                 fast.now(rank, "compute")),
                ("busy_time", reference.busy_time(rank), fast.busy_time(rank)),
                ("idle_time", reference.idle_time(rank), fast.idle_time(rank)),
            ):
                assert floats_identical(ref_v, fast_v), (
                    f"{check}({rank}): reference={ref_v!r} fast={fast_v!r}")
        assert fast.idle_time(99) == fast.makespan() > 0.0


class TestEngineFuzzEquivalence:
    """The acceptance bar: >= 500 random submission sequences diffed."""

    @pytest.mark.slow
    def test_fuzz_500_sequences(self):
        from repro.verify.engine_fuzz import run_engine_fuzz

        result = run_engine_fuzz(500, seed=0)
        assert result.cases == 500
        assert not result.failures, result.failures[0].shrunk.describe()
