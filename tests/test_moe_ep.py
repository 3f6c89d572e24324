"""Expert parallelism end to end: routing math, the EP all-to-all on the
lowered step timeline, the HotExpert fault through the Section 6.1 loop,
and the planner's EP-vs-TP placement sweep."""

import pytest

from repro.faults import FAULT_PRESETS, FaultPlan, HotExpert, \
    parse_fault_spec
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.parallel.config import JobConfig, ParallelConfig
from repro.parallel.mesh import DeviceMesh
from repro.train.cost import CostModel
from repro.train.lowering import StepOpKind
from repro.train.moe import dispatch_bytes_per_rank, dropped_token_fraction
from repro.train.step import simulate_step

MOE_8X = LLAMA3_8B.moe_variant(8)
CLUSTER16 = grand_teton(16)
JOB16 = JobConfig(seq=4096, gbs=8, ngpu=16)
PAR_EP4 = ParallelConfig(tp=2, cp=1, ep=4, pp=2, dp=1)


class TestRoutingMath:
    def test_balanced_router_drops_nothing(self):
        assert dropped_token_fraction(8, 1.25, imbalance=1.0) == 0.0

    def test_hot_router_drops(self):
        d = dropped_token_fraction(8, 1.25, imbalance=3.0)
        assert 0.0 < d < 1.0
        # Hotter router, more drops.
        assert dropped_token_fraction(8, 1.25, 5.0) > d

    def test_drop_fraction_clipped_at_one(self):
        assert dropped_token_fraction(64, 0.01, imbalance=64.0) <= 1.0

    def test_compute_scale_saturates_at_capacity(self):
        """``HotExpert.work_scale`` is the hosting rank's work multiplier:
        it follows the router up to the capacity factor, then a hotter
        router drops tokens instead of doing more work."""
        assert HotExpert(rank=0, imbalance=1.0 + 2**-20).work_scale == \
            1.0 + 2**-20
        assert HotExpert(rank=0, imbalance=100.0).work_scale == 1.25
        assert HotExpert(rank=0, imbalance=100.0,
                         capacity_factor=2.0).work_scale == 2.0

    def test_dispatch_bytes_dense_model_zero(self):
        assert dispatch_bytes_per_rank(LLAMA3_8B, 4096) == 0.0

    def test_dispatch_bytes_scale_with_topk_and_tp(self):
        full = dispatch_bytes_per_rank(MOE_8X, 4096, tp=1)
        assert full == 2.0 * 4096 * MOE_8X.top_k * MOE_8X.dim
        assert dispatch_bytes_per_rank(MOE_8X, 4096, tp=4) == full / 4

    def test_validations(self):
        with pytest.raises(ValueError):
            dropped_token_fraction(0, 1.25)
        with pytest.raises(ValueError):
            dropped_token_fraction(8, 1.25, imbalance=0.5)
        with pytest.raises(ValueError):
            HotExpert(rank=0, imbalance=0.9)


class TestMoEModelConfig:
    def test_moe_variant_fields(self):
        assert MOE_8X.is_moe and not LLAMA3_8B.is_moe
        assert MOE_8X.n_experts == 8
        assert MOE_8X.name.endswith("-moe8e")

    def test_cost_model_rejects_ep_on_dense(self):
        with pytest.raises(ValueError):
            CostModel(LLAMA3_8B, PAR_EP4, JOB16, CLUSTER16)

    def test_cost_model_rejects_ep_not_dividing_experts(self):
        par = ParallelConfig(tp=2, cp=1, ep=3, pp=1, dp=1)
        job = JobConfig(seq=4096, gbs=6, ngpu=6)
        with pytest.raises(ValueError):
            CostModel(MOE_8X, par, job, grand_teton(8))


class TestMoEStep:
    """The lowered step graph carries dispatch/combine on the ep stream."""

    def test_ep_stream_events_present(self):
        rep = simulate_step(MOE_8X, PAR_EP4, JOB16, CLUSTER16)
        kinds = {op.kind for op in rep.execution.graph.ops()}
        assert StepOpKind.MOE_DISPATCH in kinds
        assert StepOpKind.MOE_COMBINE in kinds
        ep_events = [e for e in rep.execution.sim.events
                     if e.stream == "ep"]
        assert ep_events
        assert any(e.name.startswith("ep:dispatch:") for e in ep_events)
        assert any(e.name.startswith("ep:combine:") for e in ep_events)

    def test_dense_step_has_no_ep_stream(self):
        par = ParallelConfig(tp=2, cp=1, pp=2, dp=4)
        rep = simulate_step(LLAMA3_8B, par, JOB16, CLUSTER16)
        assert not [e for e in rep.execution.sim.events
                    if e.stream == "ep"]
        assert rep.expert_imbalance == 1.0
        assert rep.dropped_token_fraction == 0.0

    def test_hot_expert_slows_step_and_drops_tokens(self):
        healthy = simulate_step(MOE_8X, PAR_EP4, JOB16, CLUSTER16)
        plan = FaultPlan((HotExpert(rank=1, imbalance=3.0),))
        hot = simulate_step(MOE_8X, PAR_EP4, JOB16, CLUSTER16,
                            fault_plan=plan)
        assert hot.step_seconds > healthy.step_seconds
        assert hot.expert_imbalance == 3.0
        assert hot.dropped_token_fraction == pytest.approx(
            dropped_token_fraction(8, MOE_8X.capacity_factor, 3.0))
        assert healthy.dropped_token_fraction == 0.0

    def test_ep_comm_scales_with_group_spread(self):
        """A cost model whose EP group crosses nodes pays more for the
        all-to-all than one whose group stays on NVLink."""
        narrow = CostModel(MOE_8X, ParallelConfig(tp=1, cp=1, ep=4, pp=2,
                                                  dp=2),
                           JOB16, CLUSTER16)
        wide = CostModel(MOE_8X, ParallelConfig(tp=2, cp=2, ep=4, pp=1,
                                                dp=1),
                         JOB16, CLUSTER16)
        assert narrow.layer_ep_comm_seconds() > 0.0
        assert wide.layer_ep_comm_seconds() > narrow.layer_ep_comm_seconds()


class TestHotExpertFault:
    def test_validation(self):
        with pytest.raises(ValueError):
            HotExpert(rank=-1)
        with pytest.raises(ValueError):
            HotExpert(rank=0, imbalance=1.0)
        with pytest.raises(ValueError):
            HotExpert(rank=0, capacity_factor=1.0)

    def test_work_scale_capacity_clipped(self):
        assert HotExpert(rank=0, imbalance=3.0).work_scale == 1.25
        assert HotExpert(rank=0, imbalance=1.1).work_scale == \
            pytest.approx(1.1)

    def test_spec_parse_round_trip(self):
        f = parse_fault_spec("hotexpert:rank=3,imbalance=2.5,capacity=1.5")
        assert isinstance(f, HotExpert)
        assert (f.rank, f.imbalance, f.capacity_factor) == (3, 2.5, 1.5)

    def test_preset_registered(self):
        plan = FAULT_PRESETS["hot-expert-default"](8)
        assert isinstance(plan.faults[0], HotExpert)
        assert plan.faults[0].rank == 6

    def test_localised_by_topdown_search(self):
        """Routing skew must be pinned to the hosting rank and attributed
        to compute — the Section 6.1 loop closing over the 5th dim."""
        from repro.debug.trace_analysis import identify_slow_rank
        from repro.debug.workload import run_synthetic_workload

        mesh = DeviceMesh(ParallelConfig(tp=2, cp=1, ep=2, pp=1, dp=2))
        plan = FaultPlan((HotExpert(rank=5, imbalance=4.0,
                                    capacity_factor=2.0),))
        sim = run_synthetic_workload(mesh, faults=plan)
        report = identify_slow_rank(sim, mesh)
        assert report.slow_rank == 5
        assert report.attribution == "compute"
        assert "ep" in [d.dim for d in report.decisions]


class TestPlannerEP:
    """The cost-aware sweep decides EP-vs-TP expert placement."""

    CLUSTER = grand_teton(32)
    JOB = JobConfig(seq=2048, gbs=32, ngpu=32)

    def _winner(self, n_experts):
        from repro.parallel.planner import plan_parallelism

        model = LLAMA3_8B.moe_variant(n_experts)
        return plan_parallelism(model, self.JOB, self.CLUSTER,
                                cost_aware=True)

    def test_dense_sweep_has_no_ep_axis(self):
        from repro.parallel.planner import plan_parallelism

        plan = plan_parallelism(LLAMA3_8B, self.JOB, self.CLUSTER,
                                cost_aware=True)
        assert plan.parallel.ep == 1
        assert all(c.ep == 1 for c in plan.candidates)

    def test_winner_flips_toward_ep_as_experts_grow(self):
        few = self._winner(2).parallel
        many = self._winner(16).parallel
        assert many.ep > few.ep
        # The many-expert winner leans on EP at least as hard as TP
        # shrinks: the per-expert GEMMs are too small to slice thinner.
        assert many.tp <= few.tp

    def test_moe_candidates_cover_ep_axis(self):
        plan = self._winner(8)
        eps = {c.ep for c in plan.candidates}
        assert {1, 2, 4, 8} <= eps

    def test_world_product_includes_ep(self):
        p = self._winner(8).parallel
        assert p.tp * p.cp * p.ep * p.pp * p.dp == self.JOB.ngpu


class TestCLISurface:
    """``repro step --experts N --ep E`` is the MoE entry point."""

    def _json_out(self, capsys):
        import json

        return json.loads(capsys.readouterr().out)

    def test_step_with_experts_and_ep(self, capsys):
        from repro.cli import main

        main(["step", "--model", "8b", "--seq", "4096", "--gbs", "8",
              "--ngpu", "16", "--experts", "8", "--top-k", "2",
              "--tp", "2", "--cp", "1", "--ep", "4", "--pp", "2",
              "--dp", "1", "--json"])
        out = self._json_out(capsys)
        assert out["parallel"]["ep"] == 4
        assert out["step_seconds"] > 0.0
        assert out["expert_imbalance"] == 1.0
        assert out["dropped_token_fraction"] == 0.0

    def test_step_world_size_check_includes_ep(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["step", "--model", "8b", "--seq", "4096", "--gbs", "8",
                  "--ngpu", "16", "--experts", "8",
                  "--tp", "2", "--ep", "4", "--pp", "2", "--dp", "2"])

    def test_step_bad_expert_count_fails_cleanly(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["step", "--model", "8b", "--seq", "4096", "--gbs", "8",
                  "--ngpu", "16", "--experts", "-1",
                  "--tp", "2", "--pp", "2", "--dp", "4"])
