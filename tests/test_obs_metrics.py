"""Tests for the metrics registry and its mesh-group aggregation."""

import numpy as np
import pytest

from repro.debug.workload import join_collective
from repro.numerics.precision import ALL_FP32
from repro.numerics.transformer import TinyConfig, TinyTransformer
from repro.numerics.fsdp_emul import FsdpEmulator
from repro.obs.metrics import (
    MetricsRegistry,
    pp_rank_map,
    record_simulator_metrics,
)
from repro.parallel.config import ParallelConfig, ZeroStage
from repro.parallel.mesh import DIM_ORDER, DeviceMesh
from repro.sim.engine import Simulator
from tests.harness import reference_sim_metrics


class TestFamilies:
    def test_counter_accumulates_per_labelset(self):
        reg = MetricsRegistry()
        c = reg.counter("ops", unit="ops")
        c.inc(1, rank=0)
        c.inc(2, rank=0)
        c.inc(5, rank=1)
        assert c.value(rank=0) == 3
        assert c.value(rank=1) == 5
        assert c.value(rank=9) == 0.0

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_set_and_max(self):
        g = MetricsRegistry().gauge("mem", unit="GiB")
        g.set(3.0, rank=0)
        g.set(1.0, rank=0)
        assert g.value(rank=0) == 1.0
        g.set_max(5.0, rank=0)
        g.set_max(2.0, rank=0)
        assert g.value(rank=0) == 5.0

    def test_gauge_missing_sample_raises(self):
        with pytest.raises(KeyError):
            MetricsRegistry().gauge("g").value(rank=3)

    def test_histogram_summary(self):
        h = MetricsRegistry().histogram("lat", unit="s")
        for v in (1.0, 3.0, 2.0):
            h.observe(v, kind="fwd")
        (s,) = h.values.values()
        assert (s.count, s.min, s.max) == (3, 1.0, 3.0)
        assert s.mean == pytest.approx(2.0)

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")


class TestMeshAggregation:
    def _registry(self):
        # 8 ranks: tp=2, cp=2, pp=2; busy = global rank index.
        reg = MetricsRegistry()
        g = reg.gauge("busy", unit="s")
        for rank in range(8):
            g.set(float(rank), rank=rank)
        return reg, DeviceMesh(ParallelConfig(tp=2, cp=2, pp=2))

    def test_sum_by_pp_coord(self):
        reg, mesh = self._registry()
        agg = reg.aggregate_by_coord("busy", mesh, "pp", "sum")
        # pp=0 holds ranks 0..3, pp=1 holds 4..7.
        assert agg == {0: 6.0, 1: 22.0}

    def test_mean_by_tp_coord(self):
        reg, mesh = self._registry()
        agg = reg.aggregate_by_coord("busy", mesh, "tp", "mean")
        assert agg == {0: 3.0, 1: 4.0}

    def test_all_dims(self):
        reg, mesh = self._registry()
        out = {dim: reg.aggregate_by_coord("busy", mesh, dim)
               for dim in DIM_ORDER}
        assert set(out) == {"tp", "cp", "ep", "pp", "dp"}
        assert out["dp"] == {0: sum(range(8))}

    def test_unknown_dim_and_reduce_rejected(self):
        reg, mesh = self._registry()
        with pytest.raises(ValueError):
            reg.aggregate_by_coord("busy", mesh, "xx")
        with pytest.raises(ValueError):
            reg.aggregate_by_coord("busy", mesh, "pp", "median")

    def test_missing_rank_label_rejected(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.0, stream="compute")
        mesh = DeviceMesh(ParallelConfig(tp=2))
        with pytest.raises(ValueError):
            reg.aggregate_by_coord("g", mesh, "tp")

    def test_histogram_not_aggregatable(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(1.0, rank=0)
        mesh = DeviceMesh(ParallelConfig(tp=1))
        with pytest.raises(TypeError):
            reg.aggregate_by_coord("h", mesh, "tp")


class TestRecordSimulator:
    """The first two cases pin what the frozen event-path oracle
    (``tests/harness/reference_sim_metrics.py``) counts, which the
    lazy-timeline differential compares the record's gauges against."""

    def test_busy_idle_exposed_and_bubble(self):
        sim = Simulator()
        sim.run(0, "compute", 4.0, "work")
        sim.run(1, "compute", 2.0, "work")
        sim.run(1, "p2p", 1.5, "wait", kind="exposed_comm")
        reg = reference_sim_metrics.record_simulator_metrics(sim)
        assert reg.gauge("sim.busy_seconds").value(rank=0) == 4.0
        assert reg.gauge("sim.idle_seconds").value(rank=1) == 2.0
        assert reg.gauge("sim.exposed_comm_seconds").value(rank=1) == 1.5
        assert reg.gauge("sim.bubble_ratio").value(rank=1) == pytest.approx(1.0)

    def test_collectives_counted_as_comm_not_busy(self):
        sim = Simulator()
        join_collective(sim, [0, 1], "compute", 1.0, "tp:ag")
        reg = reference_sim_metrics.record_simulator_metrics(sim)
        assert reg.gauge("sim.comm_seconds").value(rank=0) == 1.0
        assert reg.gauge("sim.busy_seconds").value(rank=0) == 0.0

    def test_rank_map_relabels(self):
        rep = _step(ParallelConfig(tp=2, cp=1, pp=4, dp=2,
                                   zero=ZeroStage.ZERO_2))
        reg = record_simulator_metrics(rep.run, rank_map={0: 64})
        busy = reg.gauge("sim.busy_seconds")
        assert busy.value(rank=64) == rep.run.per_rank_busy[0]
        assert busy.value(rank=1) == rep.run.per_rank_busy[1]
        assert "sim.comm_seconds" not in reg


def _step(par, metrics=None):
    from repro.hardware.cluster import grand_teton
    from repro.model.config import LLAMA3_8B
    from repro.parallel.config import JobConfig
    from repro.train.step import simulate_step

    job = JobConfig(seq=8192, gbs=8, ngpu=par.world_size)
    return simulate_step(LLAMA3_8B, par, job, grand_teton(par.world_size),
                         metrics=metrics)


class TestInstrumentedPaths:
    def test_step_reports_group_aggregates(self):
        """Acceptance: per-(dp,pp,cp,tp)-group busy/idle/exposed-comm and
        bubble-ratio aggregates from one simulated step."""
        par = ParallelConfig(tp=2, cp=1, pp=4, dp=2, zero=ZeroStage.ZERO_2)
        reg = MetricsRegistry()
        rep = _step(par, reg)
        mesh = DeviceMesh(par)
        for name in ("sim.busy_seconds", "sim.idle_seconds",
                     "sim.exposed_comm_seconds"):
            by_pp = reg.aggregate_by_coord(name, mesh, "pp", "sum")
            assert set(by_pp) == set(range(par.pp))
        bubble = reg.aggregate_by_coord("sim.bubble_ratio", mesh, "dp",
                                        "mean")
        # The gauges are the run's own per-rank bubble ratios, so their
        # dp-0 mean is the run's mean, summed in the same order.
        assert bubble[0] == rep.mean_bubble_ratio
        busy = reg.aggregate_by_coord("sim.busy_seconds", mesh, "pp", "sum")
        for ppr in range(par.pp):
            assert busy[ppr] == pytest.approx(rep.run.per_rank_busy[ppr])

    def test_executor_op_counters(self):
        from repro.hardware.cluster import grand_teton
        from repro.model.config import LLAMA3_8B
        from repro.parallel.config import JobConfig
        from repro.train.step import simulate_step

        par = ParallelConfig(tp=2, cp=1, pp=4, dp=2, zero=ZeroStage.ZERO_2)
        job = JobConfig(seq=8192, gbs=8, ngpu=16)
        reg = MetricsRegistry()
        simulate_step(LLAMA3_8B, par, job, grand_teton(16), metrics=reg)
        ops = reg.counter("pp.ops")
        total = sum(ops.values.values())
        # Each of pp*v stages runs nmb forwards + nmb backwards.
        nmb = job.micro_batches(par)
        v = -(-LLAMA3_8B.n_layers // par.pp)
        assert total == par.pp * v * nmb * 2
        assert "pp.exposed_p2p_seconds" in reg

    def test_fsdp_emulator_reports(self):
        cfg = TinyConfig()
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, cfg.vocab, (4, 8))
        targets = rng.integers(0, cfg.vocab, (4, 8))
        reg = MetricsRegistry()
        trainer = FsdpEmulator(
            model=TinyTransformer.create(cfg, seed=1), dp=2,
            zero=ZeroStage.ZERO_3, precision=ALL_FP32, metrics=reg,
        )
        trainer.train_step(tokens, targets)
        assert reg.counter("fsdp.param_allgathers").value(zero="zero_3") == 2
        assert reg.counter("fsdp.grad_reduce_scatters").value(
            zero="zero_3") == 1
        resident = reg.gauge("fsdp.resident_bytes")
        expected = trainer.resident_bytes_per_rank()
        for component in ("params", "grads", "optimizer", "total"):
            assert resident.value(zero="zero_3", component=component) == \
                expected[component]

    def test_slow_rank_emits_structured_events(self):
        from repro.debug.trace_analysis import identify_slow_rank
        from repro.debug.workload import run_synthetic_workload
        from repro.faults import ComputeStraggler, FaultPlan

        mesh = DeviceMesh(ParallelConfig(tp=4, cp=2))
        sim = run_synthetic_workload(mesh, faults=FaultPlan((
            ComputeStraggler(rank=6, extra_seconds=0.5),)))
        reg = MetricsRegistry()
        report = identify_slow_rank(sim, mesh, metrics=reg)
        assert report.slow_rank == 6
        kinds = [e["event"] for e in reg.events]
        assert kinds[-1] == "slow_rank.located"
        assert "slow_rank.decision" in kinds
        located = reg.events[-1]
        assert located["rank"] == 6
        decision_dims = [e["dim"] for e in reg.events
                         if e["event"] == "slow_rank.decision"]
        assert decision_dims == [d.dim for d in report.decisions]


class TestPpRankMap:
    def test_maps_onto_pp_axis(self):
        par = ParallelConfig(tp=2, cp=1, pp=4, dp=2)
        mesh = DeviceMesh(par)
        mapping = pp_rank_map(par)
        assert set(mapping) == set(range(4))
        for ppr, rank in mapping.items():
            assert mesh.coord_of(rank).pp == ppr
            assert mesh.coord_of(rank).tp == 0
