"""Schema-stability tests for the machine-readable run reports."""

import json

import numpy as np
import pytest

from repro.cp.imbalance import simulate_fleet_imbalance
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.obs.report import (
    imbalance_report,
    phases_report,
    plan_report,
    render_json,
    step_group_metrics,
    step_report,
)
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage
from repro.parallel.planner import plan_parallelism
from repro.train.phases import LLAMA3_405B_PHASES, plan_pretraining
from repro.train.step import simulate_step

PAR = ParallelConfig(tp=2, cp=1, pp=4, dp=2, zero=ZeroStage.ZERO_2)
JOB = JobConfig(seq=8192, gbs=8, ngpu=16)


@pytest.fixture(scope="module")
def step():
    return simulate_step(LLAMA3_8B, PAR, JOB, grand_teton(16))


def _round_trips(report):
    assert json.loads(render_json(report)) == report


class TestPlanReport:
    def test_schema_and_fields(self):
        plan = plan_parallelism(LLAMA3_8B, JOB, grand_teton(16))
        rep = plan_report(plan)
        assert rep["schema"] == "repro.plan/v2"
        assert rep["parallel"]["world_size"] == 16
        assert rep["job"]["gbs"] == 8
        assert isinstance(rep["rationale"], list) and rep["rationale"]
        _round_trips(rep)


class TestStepReport:
    def test_schema_and_headline_numbers(self, step):
        rep = step_report(step, PAR, JOB)
        assert rep["schema"] == "repro.step/v2"
        assert rep["step_seconds"] == pytest.approx(step.step_seconds)
        assert rep["tflops_per_gpu"] == pytest.approx(step.tflops_per_gpu)
        assert len(rep["per_rank_busy_seconds"]) == PAR.pp
        assert len(rep["bubble_ratios"]) == PAR.pp
        assert rep["max_peak_memory_gb"] == pytest.approx(
            max(rep["per_rank_peak_memory_gb"]))
        _round_trips(rep)

    def test_groups_cover_all_dims(self, step):
        groups = step_group_metrics(step, PAR)
        assert set(groups) == {"busy_seconds", "idle_seconds",
                               "exposed_comm_seconds", "bubble_ratio"}
        for table in groups.values():
            assert set(table) == {"tp", "cp", "ep", "pp", "dp"}
        # The pp axis resolves per-stage; other axes collapse to index 0.
        assert set(groups["busy_seconds"]["pp"]) == {str(i)
                                                     for i in range(PAR.pp)}
        assert set(groups["busy_seconds"]["tp"]) == {"0"}

    def test_group_totals_match_run(self, step):
        groups = step_group_metrics(step, PAR)
        total_busy = sum(groups["busy_seconds"]["dp"].values())
        assert total_busy == pytest.approx(sum(step.run.per_rank_busy))

    def test_pp_groups_are_the_runs_own_ratios(self, step):
        """The groups and the headline fields read one per-rank record:
        each pp stage's bubble ratio and idle seconds are the run's."""
        groups = step_group_metrics(step, PAR)
        for i in range(PAR.pp):
            assert (groups["bubble_ratio"]["pp"][str(i)]
                    == step.run.bubble_ratios[i])
        assert (list(groups["idle_seconds"]["pp"].values())
                == list(step.run.per_rank_idle))


class TestPhasesReport:
    def test_schema_and_per_phase_rows(self):
        from repro.model.config import LLAMA3_405B

        reports = plan_pretraining(
            LLAMA3_405B, grand_teton(16384), LLAMA3_405B_PHASES[:2])
        rep = phases_report(reports)
        assert rep["schema"] == "repro.phases/v2"
        assert [p["name"] for p in rep["phases"]] == \
            [r.phase.name for r in reports]
        for row in rep["phases"]:
            assert row["tflops_per_gpu"] > 0
            assert row["parallel"]["world_size"] == row["job"]["ngpu"]
        _round_trips(rep)


class TestImbalanceReport:
    def test_schema_and_summaries(self):
        fleet = simulate_fleet_imbalance(
            grand_teton(256), seq=131072, cp=16, n_dp_groups=8, steps=2,
            mean_doc_len=32768.0, rng=np.random.default_rng(0))
        rep = imbalance_report(fleet)
        assert rep["schema"] == "repro.imbalance/v2"
        assert rep["n_gpus"] == fleet.compute_seconds.size
        for key in ("attention_seconds", "compute_seconds",
                    "exposed_cp_seconds", "wait_seconds"):
            summary = rep[key]
            assert summary["min"] <= summary["mean"] <= summary["max"]
        _round_trips(rep)


class TestRenderJson:
    def test_sorted_and_stable(self):
        out = render_json({"b": 1, "a": [1, 2]})
        assert out.index('"a"') < out.index('"b"')
        assert json.loads(out) == {"b": 1, "a": [1, 2]}

    def test_numpy_scalars_rejected_early(self):
        # Reports must contain plain Python numbers, not numpy scalars —
        # render_json is the guard that catches a regression.
        with pytest.raises(TypeError):
            render_json({"x": np.int64(1)})
