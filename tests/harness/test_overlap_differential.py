"""Differential tests: comm-overlap accounting == the frozen all-pairs sum.

:func:`repro.obs.metrics.record_comm_overlap_metrics` sums each comm
event's overlap over a bisected window of its rank's merged compute
intervals; :mod:`tests.harness.reference_overlap` sums it over every
interval.  Each case runs both on the same simulator and requires every
``comm.total_seconds`` / ``comm.overlapped_seconds`` /
``comm.exposed_seconds`` sample to carry the same labels and the same
``float.hex``.

Randomized timelines cover touching endpoints, nested and zero-length
compute, comm spanning many intervals, zero-length comm, ranks with no
compute, and a rank map (``remap_ranks`` on the live side).  Real
timelines are the healthy and faulted steps of every
``faults-analyze`` fault kind, a cp > 1 step and an ep > 1 MoE step.
"""

from __future__ import annotations

import random

import pytest

from repro.faults import FaultPlan
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.obs.metrics import MetricsRegistry, record_comm_overlap_metrics
from repro.obs.trace import remap_ranks
from repro.parallel.config import JobConfig, ParallelConfig
from repro.sim.engine import Simulator, TraceEvent
from repro.train.step import simulate_step
from tests.harness.reference_overlap import (
    record_comm_overlap_metrics as reference_overlap,
)
from tests.test_comm_overlap_golden import FAULT_KINDS, MESHES, _fault

SERIES = ("comm.total_seconds", "comm.overlapped_seconds",
          "comm.exposed_seconds")


def _samples(registry: MetricsRegistry) -> dict:
    return {
        name: {labels: value.hex()
               for labels, value in registry.get(name).values.items()}
        for name in SERIES if name in registry
    }


def _assert_bitwise(sim: Simulator, rank_map=None) -> None:
    # A rank map reaches the live accounting the way the CLI applies it:
    # on the timeline, before anything reads it.
    live_sim = sim if rank_map is None else remap_ranks(sim, rank_map)
    live = _samples(record_comm_overlap_metrics(live_sim))
    frozen = _samples(reference_overlap(sim, rank_map=rank_map))
    assert live == frozen


def _time(rng: random.Random) -> float:
    """Half the draws land on a coarse grid, so endpoints often touch."""
    if rng.random() < 0.5:
        return rng.randrange(0, 41) * 0.25
    return rng.uniform(0.0, 10.0)


def _random_timeline(seed: int) -> Simulator:
    rng = random.Random(seed)
    sim = Simulator()
    for rank in range(rng.randint(1, 5)):
        if rng.random() < 0.8:  # else: a rank with comm and no compute
            for i in range(rng.randint(0, 40)):
                start = _time(rng)
                roll = rng.random()
                if roll < 0.1:
                    end = start  # zero-length compute
                elif roll < 0.2:
                    end = start + rng.uniform(2.0, 6.0)  # nests others
                else:
                    end = start + rng.choice((0.25, 0.5, rng.uniform(0, 1)))
                sim.record(TraceEvent(f"c{i}", "compute", rank,
                                      rng.choice(("compute", "aux")),
                                      start, end))
        for i in range(rng.randint(1, 30)):
            start = _time(rng)
            roll = rng.random()
            if roll < 0.1:
                end = start  # zero-length comm
            elif roll < 0.3:
                end = start + rng.uniform(3.0, 10.0)  # spans many intervals
            else:
                end = start + rng.choice((0.25, rng.uniform(0, 1.5)))
            sim.record(TraceEvent(f"m{i}", "comm", rank,
                                  rng.choice(("tp", "dp", "pp")),
                                  start, end))
    return sim


@pytest.mark.parametrize("seed", range(200))
def test_random_timelines_bitwise(seed):
    sim = _random_timeline(seed)
    _assert_bitwise(sim)
    ranks = sorted({e.rank for e in sim.events})
    _assert_bitwise(sim, rank_map={r: 100 + 7 * r for r in ranks[::2]})


def test_touching_and_nested_edges_bitwise():
    sim = Simulator()
    for start, end in ((0.0, 1.0), (1.0, 2.0), (0.5, 0.75), (3.0, 3.0),
                       (4.0, 5.0), (4.25, 4.5), (6.0, 7.0)):
        sim.record(TraceEvent("c", "compute", 0, "compute", start, end))
    for start, end in ((2.0, 3.0), (3.0, 3.0), (0.0, 7.0), (2.5, 4.0),
                       (5.0, 6.0), (7.0, 9.0), (-1.0, 0.0), (1.0, 1.0)):
        sim.record(TraceEvent("m", "comm", 0, "tp", start, end))
    sim.record(TraceEvent("m", "comm", 1, "dp", 0.0, 2.0))
    _assert_bitwise(sim)
    _assert_bitwise(sim, rank_map={0: 5, 1: 3})


def _step_sim(model, parallel, job, plan=None) -> Simulator:
    sim = Simulator()
    simulate_step(model, parallel, job, grand_teton(job.ngpu), sim=sim,
                  fault_plan=plan)
    return sim


@pytest.mark.parametrize("kind", (None,) + FAULT_KINDS)
def test_faults_analyze_steps_bitwise(kind):
    model, parallel, job, rank = MESHES["dense-tp8-pp2-dp4"]
    plan = None if kind is None else FaultPlan((_fault(kind, rank),))
    _assert_bitwise(_step_sim(model, parallel, job, plan))


def test_cp_step_bitwise():
    _assert_bitwise(_step_sim(
        LLAMA3_8B, ParallelConfig(tp=2, cp=2, pp=2, dp=2),
        JobConfig(seq=16384, gbs=8, ngpu=16)))


def test_moe_ep_step_bitwise():
    _assert_bitwise(_step_sim(
        LLAMA3_8B.moe_variant(8), ParallelConfig(tp=2, ep=4, pp=2, dp=1),
        JobConfig(seq=4096, gbs=8, ngpu=16)))
