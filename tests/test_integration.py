"""Cross-module integration tests: planner -> schedule -> executor ->
memory, across the model zoo, plus consistency checks between analytical
formulas and event-level simulation."""

import numpy as np
import pytest

from repro.hardware.cluster import GRAND_TETON_16K, grand_teton
from repro.model.config import LLAMA3_8B, LLAMA3_70B, LLAMA3_405B
from repro.model.flops import model_params
from repro.parallel.config import JobConfig
from repro.parallel.mesh import DeviceMesh
from repro.parallel.planner import plan_parallelism
from repro.pp.analysis import ScheduleShape, bubble_ratio, default_nc
from repro.pp.schedule import build_flexible_schedule
from repro.train.step import simulate_step


class TestPlannerToStepAcrossZoo:
    """The full chain must work for every model at an appropriate scale."""

    CASES = [
        (LLAMA3_8B, JobConfig(seq=8192, gbs=512, ngpu=512), grand_teton(512)),
        (LLAMA3_70B, JobConfig(seq=8192, gbs=1024, ngpu=2048),
         grand_teton(2048)),
        (LLAMA3_405B, JobConfig(seq=8192, gbs=2048, ngpu=16384),
         GRAND_TETON_16K),
    ]

    @pytest.mark.parametrize(
        "model,job,cluster", CASES,
        ids=[m.name for m, _, _ in CASES],
    )
    def test_plan_then_simulate(self, model, job, cluster):
        plan = plan_parallelism(model, job, cluster)
        rep = simulate_step(model, plan.parallel, job, cluster,
                            v=plan.virtual_stages)
        assert rep.max_peak_memory_gb < cluster.gpu.hbm_capacity_gb
        assert 100 < rep.tflops_per_gpu < 700
        assert rep.step_seconds > 0

    def test_bigger_models_need_more_model_parallelism(self):
        sizes = []
        for model, job, cluster in self.CASES:
            plan = plan_parallelism(model, job, cluster)
            par = plan.parallel
            sizes.append((model_params(model), par.tp * par.ep * par.pp))
        sizes.sort()
        assert sizes[0][1] <= sizes[1][1] <= sizes[2][1]


class TestMeshMatchesClusterTopology:
    def test_tp_groups_stay_on_nvlink(self):
        """The [TP, CP, PP, DP] ordering exists so TP groups live inside
        nodes — verify against the physical cluster mapping."""
        from repro.parallel.config import ParallelConfig
        mesh = DeviceMesh(ParallelConfig(tp=8, cp=2, pp=4, dp=4))
        cluster = grand_teton(256)
        for rank in range(0, mesh.world_size, 37):
            group = mesh.group_of(rank, "tp")
            assert cluster.group_link(group) is cluster.intra_node_link

    def test_dp_groups_span_nodes(self):
        from repro.parallel.config import ParallelConfig
        mesh = DeviceMesh(ParallelConfig(tp=8, cp=2, pp=4, dp=4))
        cluster = grand_teton(256)
        group = mesh.group_of(0, "dp")
        assert cluster.group_link(group) is cluster.inter_node_link


class TestAnalyticalVsEventLevel:
    def test_bubble_matches_closed_form_ideal(self):
        """With homogeneous stages and free P2P, the measured bubble
        equals the Section 3.1.1 formula exactly."""
        from repro.pp.layout import build_layout
        from repro.train.cost import StageCost
        from repro.train.executor import execute_pipeline

        shape = ScheduleShape(pp=4, v=2, nc=4, nmb=16)
        sched = build_flexible_schedule(shape)
        layout = build_layout(8, 4, 2)
        run = execute_pipeline(
            sched, layout,
            lambda s: StageCost(1.0 * s.n_layers, 0, 0),
            lambda s: StageCost(2.0 * s.n_layers, 0, 0),
            p2p_seconds=0.0,
        )
        assert run.mean_bubble_ratio == pytest.approx(
            bubble_ratio(shape.pp, shape.nmb, shape.v), rel=1e-9
        )

    def test_memory_tracker_vs_planner_estimate(self):
        """Event-level peak memory stays within the planner's closed-form
        envelope for the production configuration."""
        from repro.parallel.config import ParallelConfig, ZeroStage
        from repro.parallel.memory import estimate_rank_memory
        from repro.model.memory import GIB

        par = ParallelConfig(tp=8, cp=1, pp=16, dp=128,
                             zero=ZeroStage.ZERO_2)
        job = JobConfig(seq=8192, gbs=2048, ngpu=16384)
        rep = simulate_step(LLAMA3_405B, par, job, GRAND_TETON_16K)
        nmb = job.micro_batches(par)
        from repro.pp.analysis import peak_in_flight_microbatches
        in_flight = peak_in_flight_microbatches(
            16, 0, 8, default_nc(16, nmb), nmb)
        closed = estimate_rank_memory(
            LLAMA3_405B, par, job, layers_on_rank=8,
            in_flight_microbatches=in_flight, virtual_stages=8,
            has_embedding=True,
        ).total / GIB
        measured = rep.per_rank_peak_memory_gb[0]
        assert measured == pytest.approx(closed, rel=0.25)

    def test_chrome_trace_round_trip(self, tmp_path):
        import json

        from repro.debug.workload import run_synthetic_workload
        from repro.obs.trace import export_chrome_trace, validate_trace
        from repro.parallel.config import ParallelConfig

        mesh = DeviceMesh(ParallelConfig(tp=2, cp=2))
        sim = run_synthetic_workload(mesh)
        path = tmp_path / "trace.json"
        export_chrome_trace(sim, str(path), mesh=mesh)
        loaded = json.loads(path.read_text())
        assert validate_trace(loaded) == []
        spans = [r for r in loaded["traceEvents"] if r.get("ph") == "X"]
        assert len(spans) == len(sim.events)


class TestSeededDeterminism:
    def test_fleet_imbalance_reproducible(self):
        from repro.cp.imbalance import simulate_fleet_imbalance

        cluster = grand_teton(256)
        kwargs = dict(seq=131072, cp=8, n_dp_groups=4, steps=2,
                      mean_doc_len=16384.0)
        a = simulate_fleet_imbalance(cluster,
                                     rng=np.random.default_rng(3), **kwargs)
        b = simulate_fleet_imbalance(cluster,
                                     rng=np.random.default_rng(3), **kwargs)
        np.testing.assert_array_equal(a.compute_seconds, b.compute_seconds)
        assert a.elapsed_seconds == b.elapsed_seconds
