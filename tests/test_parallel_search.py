"""The design-space search (:mod:`repro.parallel.search`) behind the
planner, the schedule autotuner and the HBM what-if.

``tests/golden/plan_search.json`` pins what each caller returns: the
Table 2 plans, a cost-aware sweep over every schedule kind, a MoE
cost-aware sweep, the autotuner on the ablation config and the Section 8.1
HBM sweep.  Planner candidates are compared as their ``repro.plan`` JSON
rows without ``simulated_peak_gb``, which the golden predates.

Regenerate after an intentional change with::

    PYTHONPATH=src python tests/test_parallel_search.py --regen
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.hardware.cluster import GRAND_TETON_16K, grand_teton
from repro.hardware.whatif import hbm_capacity_sweep
from repro.model.config import LLAMA3_405B, LLAMA3_405B_SCALED_26L, LLAMA3_8B
from repro.obs.report import plan_report, render_json
from repro.parallel.config import (
    LLAMA3_405B_LONG_CONTEXT,
    LLAMA3_405B_SHORT_CONTEXT,
    JobConfig,
    ParallelConfig,
    ZeroStage,
)
from repro.parallel.planner import plan_parallelism
from repro.parallel.search import Candidate, rank_key, within_budget
from repro.pp.autotune import autotune_schedule

GOLDEN = Path(__file__).parent / "golden" / "plan_search.json"

SEC81_MODEL = LLAMA3_405B_SCALED_26L
SEC81_JOB = JobConfig(seq=8192, gbs=512, ngpu=2048)
SEC81_CAPACITIES = (24, 40, 60, 80, 120)


def _plans() -> dict:
    plans = {str(job.seq): plan_parallelism(LLAMA3_405B, job, GRAND_TETON_16K)
             for job in (LLAMA3_405B_SHORT_CONTEXT, LLAMA3_405B_LONG_CONTEXT)}
    plans["cost_aware_all"] = plan_parallelism(
        LLAMA3_8B, JobConfig(seq=512, gbs=6, ngpu=16), grand_teton(16),
        cost_aware=True, schedule_kind="all")
    plans["cost_aware_moe"] = plan_parallelism(
        LLAMA3_8B.moe_variant(4), JobConfig(seq=1024, gbs=8, ngpu=8),
        grand_teton(8), cost_aware=True)
    return plans


def _report(plan) -> dict:
    rep = json.loads(render_json(plan_report(plan)))
    for row in rep["candidates"]:
        row.pop("simulated_peak_gb")
    return rep


def _current(plans: dict) -> dict:
    tuned = autotune_schedule(
        LLAMA3_405B_SCALED_26L,
        ParallelConfig(tp=8, cp=1, pp=4, dp=48, zero=ZeroStage.ZERO_1),
        JobConfig(seq=8192, gbs=576, ngpu=1536), grand_teton(1536),
        memory_budget_gb=40.0)
    points = hbm_capacity_sweep(SEC81_MODEL, SEC81_JOB, grand_teton(2048),
                                capacities_gb=SEC81_CAPACITIES, v=7)
    return {
        "table2": {seq: _report(plans[seq]) for seq in ("8192", "131072")},
        "cost_aware_all": _report(plans["cost_aware_all"]),
        "cost_aware_moe": _report(plans["cost_aware_moe"]),
        "autotune": [
            {"describe": c.describe(), "kind": c.kind, "nc": c.nc, "v": c.v,
             "tflops_per_gpu": c.tflops_per_gpu,
             "peak_gb": c.simulated_peak_gb,
             "bubble_ratio": c.bubble_ratio, "feasible": c.feasible}
            for c in tuned],
        "hbm_capacity_sweep": [dataclasses.asdict(p) for p in points],
    }


@pytest.fixture(scope="module")
def plans():
    return _plans()


@pytest.fixture(scope="module")
def current(plans):
    return _current(plans)


@pytest.mark.parametrize("section", [
    "table2", "cost_aware_all", "cost_aware_moe", "autotune",
    "hbm_capacity_sweep"])
def test_matches_golden(current, section):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert current[section] == golden[section]


def test_simulated_candidates_carry_both_memory_numbers(plans):
    for name in ("cost_aware_all", "cost_aware_moe"):
        for cand in plans[name].candidates:
            simulated = cand.tflops_per_gpu is not None
            assert (cand.simulated_peak_gb is not None) == simulated
            if simulated:
                assert cand.memory_gb is not None
                assert cand.to_dict()["simulated_peak_gb"] == (
                    cand.simulated_peak_gb)


def test_hbm_sweep_simulates_each_layout_once(monkeypatch):
    """The simulated step does not depend on the capacity, so five
    capacities over the nine (tp, pp) layouts cost nine simulations."""
    import repro.train.step as step

    calls = []
    real = step.simulate_step

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(step, "simulate_step", counting)
    hbm_capacity_sweep(SEC81_MODEL, SEC81_JOB, grand_teton(2048),
                       capacities_gb=SEC81_CAPACITIES, v=7)
    assert len(calls) == 9
    assert len({(p.tp, p.pp) for p in calls}) == 9


def test_nothing_fits_names_the_nearest_miss():
    with pytest.raises(ConfigError, match=(
            r"no \(tp, pp\) combination fits .*; nearest is tp=8 pp=1: "
            r"rank-0 peak [\d.]+ GiB exceeds 72 GiB usable HBM")):
        plan_parallelism(LLAMA3_405B, JobConfig(seq=8192, gbs=8, ngpu=8),
                         grand_teton(8))


def test_rank_is_feasible_first_then_tflops_and_stable():
    a = Candidate(tp=1, pp=1, tflops_per_gpu=300.0, feasible=True)
    b = Candidate(tp=2, pp=1, tflops_per_gpu=400.0, feasible=False)
    c = Candidate(tp=4, pp=1, tflops_per_gpu=300.0, feasible=True)
    d = Candidate(tp=8, pp=1, tflops_per_gpu=350.0, feasible=True)
    assert sorted([a, b, c, d], key=rank_key) == [d, a, c, b]


def test_within_budget_rejects_with_the_simulated_peak():
    cand = Candidate(tp=8, pp=4, tflops_per_gpu=400.0,
                     simulated_peak_gb=41.25, feasible=True)
    assert within_budget(cand, None) is cand
    assert within_budget(cand, 41.25) is cand
    over = within_budget(cand, 40.0)
    assert not over.feasible
    assert over.reason == "simulated peak 41.2 GiB exceeds 40 GiB budget"


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN.write_text(json.dumps(_current(_plans()), indent=1,
                                     sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"wrote {GOLDEN}")
