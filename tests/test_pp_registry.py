"""The pluggable schedule registry (docs/schedules.md).

Covers the refactor's load-bearing guarantees:

* the three pre-refactor builders stay bitwise-identical, pinned to
  ``tests/golden/schedules_prerefactor.json``;
* registry metadata (order, aliases, name->entry resolution) drives the
  CLI choices and the fuzz sampler;
* every registered kind builds, executes deadlock-free, and passes the
  structural invariant battery;
* the zoo semantics: GPipe's LIFO drain vs AFAB, split backward's
  BI/BW structure and exact-sum pricing, DIP's heavy-first permutation,
  zero-bubble's bubble advantage over classic 1F1B;
* heterogeneity profiles change the priced timeline;
* the planner's schedule axis and the resilience run's pin-through.
"""

from __future__ import annotations

import json
import pathlib
import re

import numpy as np
import pytest

from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage
from repro.parallel.planner import plan_parallelism
from repro.pp.layout import build_layout
from repro.pp.registry import (
    entry_for_name,
    schedule_entries,
    schedule_entry,
    schedule_kinds,
)
from repro.pp.schedule import (
    OpKind,
    ScheduleShape,
    build_afab_schedule,
    build_schedule,
)
from repro.pp.zoo import build_zero_bubble_schedule, microbatch_permutation
from repro.train.cost import StageCost
from repro.train.executor import execute_pipeline
from repro.train.step import simulate_step
from repro.verify.fuzz import FuzzConfig, check_config, run_fuzz, sample_config
from repro.verify.invariants import run_invariants
from repro.verify.oracles import oracle_bubble_regression

GOLDEN = pathlib.Path(__file__).parent / "golden" / "schedules_prerefactor.json"

_KEY = re.compile(r"^(?P<kind>[\w-]+)/pp(?P<pp>\d+)v(?P<v>\d+)"
                  r"nc(?P<nc>\d+)nmb(?P<nmb>\d+)$")


def _serialize(schedule) -> dict:
    return {
        "name": schedule.name,
        "programs": [
            [[op.kind.value, op.ppr, op.virtual_stage, op.microbatch]
             for op in prog]
            for prog in schedule.programs
        ],
    }


def _uniform_costs():
    fwd = lambda s: StageCost(1.0 * max(s.n_layers, 1), 0.0, 0.0)  # noqa: E731
    bwd = lambda s: StageCost(2.0 * max(s.n_layers, 1), 0.0, 0.0)  # noqa: E731
    return fwd, bwd


def _execute(schedule, shape):
    fwd, bwd = _uniform_costs()
    layout = build_layout(shape.pp * shape.v, shape.pp, shape.v)
    return execute_pipeline(schedule, layout, fwd, bwd, p2p_seconds=0.25)


class TestGoldenPin:
    """The pre-refactor programs, bitwise."""

    def test_every_pinned_entry_reproduces(self):
        pinned = json.loads(GOLDEN.read_text())
        assert len(pinned) == 17
        for key, want in pinned.items():
            m = _KEY.match(key)
            assert m, f"malformed golden key {key!r}"
            shape = ScheduleShape(pp=int(m["pp"]), v=int(m["v"]),
                                  nc=int(m["nc"]), nmb=int(m["nmb"]))
            built = schedule_entry(m["kind"]).builder(shape)
            assert _serialize(built) == want, f"{key} drifted"
            # The legacy dispatcher is the same code path.
            assert _serialize(build_schedule(shape, m["kind"])) == want

    def test_pin_covers_all_three_legacy_kinds(self):
        kinds = {k.split("/")[0] for k in json.loads(GOLDEN.read_text())}
        assert kinds == {"flexible", "1f1b", "afab"}


class TestRegistry:
    def test_registration_order_is_the_cli_order(self):
        assert schedule_kinds() == (
            "flexible", "1f1b", "afab", "gpipe", "1f1b-noninterleaved",
            "zero-bubble", "dip")

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="no-such"):
            schedule_entry("no-such")

    def test_entries_align_with_kinds(self):
        assert tuple(e.kind for e in schedule_entries()) == schedule_kinds()

    def test_entry_for_name_resolves_aliases(self):
        assert entry_for_name("zero-bubble").kind == "zero-bubble"
        assert entry_for_name("flexible-degenerate-afab").kind == "flexible"
        assert entry_for_name("dip-degenerate-afab").kind == "dip"
        assert entry_for_name("made-up") is None

    def test_shared_alias_first_registered_wins(self):
        # Both flexible and 1f1b may emit "1f1b-interleaved".
        assert entry_for_name("1f1b-interleaved").kind == "flexible"

    def test_split_backward_flag_matches_programs(self):
        for e in schedule_entries():
            shape = ScheduleShape(pp=2, v=1, nc=2, nmb=4)
            if e.constrain is not None:
                shape = e.constrain(shape)
            built = e.builder(shape)
            assert built.uses_split_backward == e.split_backward, e.kind


class TestEveryKindBuildsAndVerifies:
    SHAPES = (ScheduleShape(pp=2, v=2, nc=2, nmb=4),
              ScheduleShape(pp=4, v=1, nc=4, nmb=8),
              ScheduleShape(pp=3, v=2, nc=1, nmb=3))

    @pytest.mark.parametrize("kind", schedule_kinds())
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_invariants_clean(self, kind, shape):
        entry = schedule_entry(kind)
        if entry.constrain is not None:
            shape = entry.constrain(shape)
        reason = entry.unsupported_reason(shape)
        if reason:
            pytest.skip(reason)
        schedule = entry.builder(shape)
        run = _execute(schedule, schedule.shape)
        report = run_invariants(schedule, run)
        assert report.ok, [v.message for v in report.violations]
        assert run.makespan > 0

    @pytest.mark.parametrize("kind", schedule_kinds())
    def test_supports_rejections_raise_in_builder(self, kind):
        entry = schedule_entry(kind)
        shape = ScheduleShape(pp=2, v=2, nc=2, nmb=4)
        reason = entry.unsupported_reason(shape)
        if not reason:
            pytest.skip(f"{kind} supports v=2")
        with pytest.raises(ValueError):
            entry.builder(shape)


class TestZooSemantics:
    def test_gpipe_drains_lifo_where_afab_drains_in_order(self):
        shape = ScheduleShape(pp=2, v=1, nc=4, nmb=4)
        gpipe = schedule_entry("gpipe").builder(shape)
        afab = build_afab_schedule(shape)
        g_fwd = [op.microbatch for op in gpipe.program(0)
                 if op.kind is OpKind.FORWARD]
        a_fwd = [op.microbatch for op in afab.program(0)
                 if op.kind is OpKind.FORWARD]
        assert g_fwd == a_fwd == [0, 1, 2, 3]
        g_bwd = [op.microbatch for op in gpipe.program(0)
                 if op.kind is OpKind.BACKWARD]
        a_bwd = [op.microbatch for op in afab.program(0)
                 if op.kind is OpKind.BACKWARD]
        assert a_bwd == [0, 1, 2, 3]
        assert g_bwd == [3, 2, 1, 0]

    def test_zero_bubble_program_structure(self):
        shape = ScheduleShape(pp=4, v=1, nc=4, nmb=8)
        zb = build_zero_bubble_schedule(shape)
        assert zb.uses_split_backward
        for ppr in range(4):
            kinds = [op.kind for op in zb.program(ppr)]
            assert kinds.count(OpKind.FORWARD) == 8
            assert kinds.count(OpKind.BACKWARD_INPUT) == 8
            assert kinds.count(OpKind.BACKWARD_WEIGHT) == 8
            assert OpKind.BACKWARD not in kinds
            # Each micro-batch's BW follows its BI (the grads need the
            # input-grad pass's intermediates).
            for mb in range(8):
                bi = next(i for i, op in enumerate(zb.program(ppr))
                          if op.kind is OpKind.BACKWARD_INPUT
                          and op.microbatch == mb)
                bw = next(i for i, op in enumerate(zb.program(ppr))
                          if op.kind is OpKind.BACKWARD_WEIGHT
                          and op.microbatch == mb)
                assert bi < bw

    def test_zero_bubble_beats_classic_1f1b_bubble(self):
        for pp, nmb in ((4, 8), (8, 16)):
            shape = ScheduleShape(pp=pp, v=1, nc=pp, nmb=nmb)
            runs = {}
            for kind in ("zero-bubble", "1f1b-noninterleaved"):
                schedule = schedule_entry(kind).builder(shape)
                runs[kind] = _execute(schedule, shape)
            assert (runs["zero-bubble"].mean_bubble_ratio
                    < runs["1f1b-noninterleaved"].mean_bubble_ratio)

    def test_split_backward_prices_sum_exactly(self):
        # BI + BW durations must tile the fused backward bitwise, so the
        # split conserves total work on the timeline.
        shape = ScheduleShape(pp=2, v=1, nc=2, nmb=4)
        fwd, bwd = _uniform_costs()
        layout = build_layout(2, 2, 1)
        fused = execute_pipeline(
            schedule_entry("1f1b-noninterleaved").builder(shape), layout,
            fwd, bwd, p2p_seconds=0.0)
        split = execute_pipeline(
            schedule_entry("zero-bubble").builder(shape), layout,
            fwd, bwd, p2p_seconds=0.0)
        busy = lambda run, r: run.sim.busy_time(r, "compute")  # noqa: E731
        for rank in range(2):
            assert busy(split, rank) == busy(fused, rank)

    def test_dip_permutes_heavy_first_and_defaults_to_identity(self):
        uniform = ScheduleShape(pp=2, v=1, nc=2, nmb=4)
        assert microbatch_permutation(uniform) == [0, 1, 2, 3]
        heavy = ScheduleShape(pp=2, v=1, nc=2, nmb=4,
                              microbatch_compute_scale=(0.5, 2.0, 1.0, 1.5))
        # Rounds are [0, 1] and [2, 3]; heavy-first within each round.
        assert microbatch_permutation(heavy) == [1, 0, 3, 2]
        dip = schedule_entry("dip").builder(heavy)
        flex = build_schedule(uniform, "flexible")
        assert ([op.kind for op in dip.program(0)]
                == [op.kind for op in flex.program(0)])
        run = _execute(dip, heavy)
        assert run_invariants(dip, run).ok


class TestHeterogeneity:
    JOB = JobConfig(seq=8192, gbs=8, ngpu=8)
    PAR = ParallelConfig(tp=2, cp=1, pp=2, dp=2, zero=ZeroStage.ZERO_2)

    def _step(self, **kwargs):
        return simulate_step(LLAMA3_8B, self.PAR, self.JOB,
                             grand_teton(8), **kwargs)

    def test_stage_preset_changes_the_priced_step(self):
        base = self._step()
        vit = self._step(stage_preset="vit-encoder")
        assert vit.step_seconds != base.step_seconds

    def test_microbatch_profile_changes_the_priced_step(self):
        # A per-micro-batch profile rides on ScheduleShape (DIP's input);
        # lowering scales each micro-batch's compute by it.
        uniform = ScheduleShape(pp=2, v=1, nc=2, nmb=4)
        heavy = ScheduleShape(pp=2, v=1, nc=2, nmb=4,
                              microbatch_compute_scale=(1.0, 2.0, 1.0, 1.0))
        base = _execute(build_schedule(uniform, "flexible"), uniform)
        het = _execute(build_schedule(heavy, "flexible"), heavy)
        assert het.makespan > base.makespan

    def test_report_names_the_built_schedule(self):
        assert self._step().schedule == "1f1b-interleaved"
        assert self._step(
            schedule_kind="zero-bubble").schedule == "zero-bubble"

    def test_v1_kinds_coerce_the_default_interleaving(self):
        # Without an explicit v, zero-bubble must not inherit the
        # flexible default v = layers/pp (its builder requires v=1).
        rep = self._step(schedule_kind="zero-bubble")
        assert rep.step_seconds > 0


class TestFuzzKindSampling:
    def test_sampler_draws_from_the_whole_registry(self):
        rng = np.random.default_rng(0)
        seen = {sample_config(rng).kind for _ in range(300)}
        assert seen == set(schedule_kinds())

    def test_kinds_filter_restricts_sampling(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert sample_config(rng, kinds=("gpipe",)).kind == "gpipe"

    def test_check_config_builds_the_sampled_kind(self):
        config = FuzzConfig(pp=2, v=1, nc=2, nmb=4, kind="zero-bubble")
        report = check_config(config)
        assert report.ok, [v.message for v in report.violations]

    @pytest.mark.parametrize("kind", schedule_kinds())
    def test_per_kind_campaign_is_clean(self, kind):
        result = run_fuzz(15, seed=0, kinds=(kind,))
        assert result.ok, result.failures


class TestPlannerScheduleAxis:
    CLUSTER = grand_teton(64)
    JOB = JobConfig(seq=8192, gbs=64, ngpu=64)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            plan_parallelism(LLAMA3_8B, self.JOB, self.CLUSTER,
                             schedule_kind="nope")

    def test_flexible_pin_reproduces_the_default_plan(self):
        base = plan_parallelism(LLAMA3_8B, self.JOB, self.CLUSTER)
        pinned = plan_parallelism(LLAMA3_8B, self.JOB, self.CLUSTER,
                                  schedule_kind="flexible")
        assert pinned.parallel == base.parallel
        assert pinned.bs == base.bs

    def test_all_sweeps_the_kind_axis_cost_aware(self):
        plan = plan_parallelism(LLAMA3_8B, self.JOB, self.CLUSTER,
                                cost_aware=True, schedule_kind="all")
        assert plan.schedule in schedule_kinds()
        kinds_seen = {c.kind for c in plan.candidates}
        assert kinds_seen >= set(schedule_kinds())
        assert f"schedule={plan.schedule}" in plan.rationale[-1]

    def test_pinned_kind_wins_its_own_axis(self):
        plan = plan_parallelism(LLAMA3_8B, self.JOB, self.CLUSTER,
                                cost_aware=True, schedule_kind="gpipe")
        assert plan.schedule == "gpipe"
        feasible = [c for c in plan.candidates if c.feasible]
        assert feasible
        assert all(c.kind == "gpipe" for c in feasible)


class TestResilienceSchedulePin:
    JOB = JobConfig(seq=8192, gbs=32, ngpu=32)

    def test_run_pins_every_segment(self):
        from repro.resilience import RunConfig, YoungDaly, simulate_run

        config = RunConfig(steps=10, mtbf_seconds=500.0, seed=1,
                           elastic=False, replacement_seconds=100.0,
                           policy=YoungDaly())
        base = simulate_run(LLAMA3_8B, self.JOB, grand_teton(32), config)
        pinned = simulate_run(LLAMA3_8B, self.JOB, grand_teton(32), config,
                              schedule_kind="gpipe")
        # GPipe prices a slower healthy step than the planner's pick.
        assert pinned.ideal_step_seconds > base.ideal_step_seconds

    def test_unknown_kind_rejected(self):
        from repro.resilience import NoCheckpoint, RunConfig, simulate_run

        with pytest.raises(ValueError):
            simulate_run(LLAMA3_8B, self.JOB, grand_teton(32),
                         RunConfig(steps=1, mtbf_seconds=500.0,
                                   policy=NoCheckpoint()),
                         schedule_kind="nope")


class TestBubbleOracle:
    def test_clean_on_the_current_builders(self):
        result = oracle_bubble_regression()
        assert result.ok, [v.message for v in result.violations]
        assert "zero-bubble" in result.context["bubble_ratios"]
