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
from repro.sim.engine import RankFold, Simulator
from repro.train.step import simulate_step
from tests.harness.diffing import compare_simulators, floats_identical
from tests.harness.reference_engine import ReferenceSimulator
from tests.harness.workloads import FOLD_WORKLOADS, STANDARD_MESHES


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


class TestFoldEquivalence:
    """Folded fast engine == reference replaying every replica explicitly."""

    @pytest.mark.parametrize(
        "name,replicas,stride,fn", FOLD_WORKLOADS,
        ids=[w[0] for w in FOLD_WORKLOADS])
    def test_fold_matches_explicit_replicas(self, name, replicas, stride, fn):
        reference = ReferenceSimulator()
        for k in range(replicas):
            fn(reference, k * stride)

        folded = Simulator(fold=RankFold(replicas=replicas, stride=stride))
        fn(folded, 0)

        problems = compare_simulators(
            reference, folded,
            ranks=range(replicas * stride))
        assert not problems, "\n".join(problems)

    def test_fold_rejects_out_of_replica_ranks(self):
        sim = Simulator(fold=RankFold(replicas=4, stride=2))
        with pytest.raises(ValueError, match="base replica"):
            sim.run(2, "compute", 1.0, "oops")
        with pytest.raises(ValueError, match="base replica"):
            sim.run_collective([0, 3], "comm", 1.0, "oops")

    def test_fold_unseen_rank_reads_zero(self):
        sim = Simulator(fold=RankFold(replicas=2, stride=4))
        sim.run(0, "compute", 1.0, "a")
        # Rank 9 is outside the folded world: same answers as an
        # unfolded engine gives for a never-seen rank.
        assert sim.now(9, "compute") == 0.0
        assert sim.events_for(9) == []
        assert sim.busy_time(9) == 0.0


class TestEngineFuzzEquivalence:
    """The acceptance bar: >= 500 random submission sequences diffed."""

    @pytest.mark.slow
    def test_fuzz_500_sequences(self):
        from repro.verify.engine_fuzz import run_engine_fuzz

        result = run_engine_fuzz(500, seed=0)
        assert result.cases == 500
        assert not result.failures, result.failures[0].shrunk.describe()
