"""Differential tests: the divisor-filtered replan == the frozen step-down.

:func:`repro.parallel.planner.replan_for_gpu_count` plans only the
node-aligned counts whose node count's odd part divides gbs;
:mod:`tests.harness.reference_replan` plans every count from the top
down.  Over a grid of dense (8B, 405B) and MoE models, power-of-two and
six-GPU nodes, batch sizes with odd factors, micro-batch sizes 1 and 2
and capacities that are not node-aligned, both must return an equal
:class:`~repro.parallel.planner.Plan` or raise the same ``ValueError``.

The plans the run tests reach are pinned as well: every capacity that
``tests/golden/resilience_paths.json`` and ``tests/test_resilience_*``
replan at, and the capacities of the ``run-faulted`` benchmark.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.parallel.planner as planner
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B, LLAMA3_405B
from repro.parallel.config import JobConfig
from repro.parallel.planner import replan_for_gpu_count
from tests.harness import reference_replan as ref

MODELS = {"8b": LLAMA3_8B, "405b": LLAMA3_405B,
          "8b-moe8e": LLAMA3_8B.moe_variant(8)}
GPUS_PER_NODE = (8, 6)
GBS = (1536, 2040, 120, 96)
MBS = (1, 2)
MAX_NGPU = (5, 47, 131, 250, 517, 1030, 4100)

GRID = [pytest.param(model, node, gbs, mbs, max_ngpu,
                     id=f"{model}-node{node}-gbs{gbs}-mbs{mbs}-max{max_ngpu}")
        for model in MODELS for node in GPUS_PER_NODE for gbs in GBS
        for mbs in MBS for max_ngpu in MAX_NGPU]


def _replan(fn, model, job, cluster, max_ngpu):
    """The plan, or the ``ValueError`` message."""
    try:
        return fn(model, job, cluster, max_ngpu)
    except ValueError as err:
        return f"ValueError: {err}"


@pytest.mark.parametrize("model,node,gbs,mbs,max_ngpu", GRID)
def test_replan_equals_frozen_step_down(model, node, gbs, mbs, max_ngpu):
    cluster = replace(grand_teton(1032), gpus_per_node=node)
    job = JobConfig(seq=8192, gbs=gbs, ngpu=max_ngpu, mbs=mbs)
    live = _replan(replan_for_gpu_count, MODELS[model], job, cluster,
                   max_ngpu)
    frozen = _replan(ref.replan_for_gpu_count, MODELS[model], job, cluster,
                     max_ngpu)
    assert live == frozen


def test_grid_reaches_plans_and_errors():
    """The grid is not all errors, nor all plans at the first count."""
    outcomes = {"plan": 0, "error": 0, "stepped_down": 0}
    for param in GRID:
        model, node, gbs, mbs, max_ngpu = param.values
        cluster = replace(grand_teton(1032), gpus_per_node=node)
        job = JobConfig(seq=8192, gbs=gbs, ngpu=max_ngpu, mbs=mbs)
        result = _replan(replan_for_gpu_count, MODELS[model], job, cluster,
                         max_ngpu)
        if isinstance(result, str):
            outcomes["error"] += 1
            continue
        outcomes["plan"] += 1
        if result.parallel.world_size < max_ngpu - max_ngpu % node:
            outcomes["stepped_down"] += 1
    assert all(count > 20 for count in outcomes.values()), outcomes


# ----------------------------------------------------------------------
# Pinned plans: every capacity the run tests and the benchmark reach
# ----------------------------------------------------------------------

#: (seq, gbs, capacity) of Llama 3 8B on 8-GPU nodes ->
#: (tp, cp, ep, pp, dp, zero stage, schedule).
PINNED = {
    # tests/test_resilience_paths.py and most of tests/test_resilience_*.
    (8192, 32, 8): (1, 1, 1, 2, 4, 1, "1f1b"),
    (8192, 32, 16): (1, 1, 1, 2, 8, 1, "1f1b"),
    (8192, 32, 24): (1, 1, 1, 2, 8, 1, "1f1b"),
    (8192, 32, 32): (1, 1, 1, 1, 32, 2, "afab"),
    (8192, 32, 40): (1, 1, 1, 1, 32, 2, "afab"),
    (8192, 32, 48): (1, 1, 1, 1, 32, 2, "afab"),
    (8192, 32, 56): (1, 1, 1, 1, 32, 2, "afab"),
    # The 1,024-GPU runs of tests/test_resilience_domains.py.
    (8192, 128, 512): (4, 1, 1, 1, 128, 2, "afab"),
    (8192, 128, 576): (4, 1, 1, 1, 128, 2, "afab"),
    (8192, 128, 640): (4, 1, 1, 1, 128, 2, "afab"),
    (8192, 128, 704): (4, 1, 1, 1, 128, 2, "afab"),
    (8192, 128, 768): (4, 1, 1, 1, 128, 2, "afab"),
    (8192, 128, 832): (4, 1, 1, 1, 128, 2, "afab"),
    (8192, 128, 896): (4, 1, 1, 1, 128, 2, "afab"),
    (8192, 128, 960): (4, 1, 1, 1, 128, 2, "afab"),
    # perfbench's run-faulted (4,096 GPUs, gbs 2048).
    (8192, 2048, 4088): (1, 1, 1, 1, 2048, 2, "afab"),
    (8192, 2048, 4032): (1, 1, 1, 1, 2048, 2, "afab"),
    (8192, 2048, 2040): (1, 1, 1, 1, 1024, 1, "1f1b"),
}


@pytest.mark.parametrize("seq,gbs,capacity", sorted(PINNED))
def test_pinned_plan(seq, gbs, capacity):
    cluster = grand_teton(capacity + 8)
    job = JobConfig(seq=seq, gbs=gbs, ngpu=capacity)
    plan = replan_for_gpu_count(LLAMA3_8B, job, cluster, capacity)
    par = plan.parallel
    assert (par.tp, par.cp, par.ep, par.pp, par.dp, par.zero.value,
            plan.schedule) == PINNED[(seq, gbs, capacity)]
    assert plan == ref.replan_for_gpu_count(LLAMA3_8B, job, cluster,
                                            capacity)


def test_run_faulted_replan_plans_once(monkeypatch):
    """At gbs 2048 only power-of-two node counts can factor: losing one
    node of 4,096 GPUs plans one count (2,048 GPUs), not 256."""
    calls = []
    plan_parallelism = planner.plan_parallelism

    def counting(*args, **kwargs):
        calls.append(args[1].ngpu)
        return plan_parallelism(*args, **kwargs)

    monkeypatch.setattr(planner, "plan_parallelism", counting)
    job = JobConfig(seq=8192, gbs=2048, ngpu=4088)
    replan_for_gpu_count(LLAMA3_8B, job, grand_teton(4096), 4088)
    assert calls == [2048]
