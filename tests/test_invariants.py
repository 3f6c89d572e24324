"""Cross-cutting property tests: invariants that must hold across the
whole library, whatever the configuration."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hardware.cluster import grand_teton
from repro.parallel.config import ParallelConfig, ZeroStage
from repro.parallel.mesh import DeviceMesh
from repro.pp.analysis import ScheduleShape
from repro.pp.grad_memory import track_memory
from repro.pp.layout import build_layout
from repro.pp.schedule import build_afab_schedule, build_flexible_schedule
from repro.sim.collectives import all_gather_time
from repro.train.cost import StageCost
from repro.train.executor import execute_pipeline

CLUSTER = grand_teton(128)

shapes = st.builds(
    lambda pp, v, rounds, nc: ScheduleShape(pp=pp, v=v, nc=nc,
                                            nmb=nc * rounds),
    pp=st.integers(min_value=1, max_value=5),
    v=st.integers(min_value=1, max_value=3),
    rounds=st.integers(min_value=1, max_value=3),
    nc=st.integers(min_value=1, max_value=6),
)

parallel_configs = st.builds(
    ParallelConfig,
    tp=st.sampled_from([1, 2, 4, 8]),
    cp=st.sampled_from([1, 2, 4]),
    pp=st.sampled_from([1, 2, 4]),
    dp=st.sampled_from([1, 2, 4]),
)


class TestExecutorInvariants:
    @settings(max_examples=40, deadline=None)
    @given(shape=shapes, p2p=st.floats(min_value=0.0, max_value=1.0))
    def test_makespan_bounded(self, shape, p2p):
        """Makespan >= any rank's busy time, and <= fully serial
        execution of everything plus all P2P hops."""
        sched = build_flexible_schedule(shape)
        layout = build_layout(shape.pp * shape.v, shape.pp, shape.v)
        run = execute_pipeline(
            sched, layout,
            lambda s: StageCost(1.0 * s.n_layers, 0, 0),
            lambda s: StageCost(2.0 * s.n_layers, 0, 0),
            p2p_seconds=p2p,
        )
        assert run.makespan >= max(run.per_rank_busy) - 1e-9
        serial = shape.pp * shape.tmb * 3.0 + \
            2 * shape.pp * shape.v * shape.nmb * p2p
        assert run.makespan <= serial + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(shape=shapes)
    def test_p2p_only_hurts(self, shape):
        sched = build_flexible_schedule(shape)
        layout = build_layout(shape.pp * shape.v, shape.pp, shape.v)

        def run(p2p):
            return execute_pipeline(
                sched, layout,
                lambda s: StageCost(1.0 * s.n_layers, 0, 0),
                lambda s: StageCost(2.0 * s.n_layers, 0, 0),
                p2p_seconds=p2p,
            ).makespan

        assert run(0.5) >= run(0.0) - 1e-9


class TestMemoryInvariants:
    @settings(max_examples=30, deadline=None)
    @given(shape=shapes, zero=st.sampled_from(list(ZeroStage)))
    def test_memory_non_negative_and_acts_drain(self, shape, zero):
        sched = build_flexible_schedule(shape)
        tl = track_memory(sched, 0, zero, shard_degree=4)
        assert all(s.grad_bytes >= 0 and s.activation_bytes >= 0
                   for s in tl.samples)
        assert tl.samples[-1].activation_bytes == 0.0

    @settings(max_examples=30, deadline=None)
    @given(shape=shapes)
    def test_zero1_peak_at_least_zero2(self, shape):
        sched = build_flexible_schedule(shape)
        z1 = track_memory(sched, 0, ZeroStage.ZERO_1, shard_degree=8)
        z2 = track_memory(sched, 0, ZeroStage.ZERO_2, shard_degree=8)
        assert z1.peak_grad_bytes >= z2.peak_grad_bytes - 1e-12
        assert z2.reduce_scatter_count >= z1.reduce_scatter_count

    @settings(max_examples=20, deadline=None)
    @given(shape=shapes)
    def test_afab_activation_peak_dominates_1f1b(self, shape):
        afab = build_afab_schedule(shape)
        flex = build_flexible_schedule(shape)
        a = track_memory(afab, 0, ZeroStage.ZERO_1)
        f = track_memory(flex, 0, ZeroStage.ZERO_1)
        peak = [max(s.activation_bytes for s in t.samples) for t in (a, f)]
        assert peak[0] >= peak[1] - 1e-12


class TestCollectiveInvariants:
    @settings(max_examples=30, deadline=None)
    @given(mb=st.floats(min_value=1e3, max_value=1e9))
    def test_time_monotone_in_bytes(self, mb):
        ranks = [0, 8, 16]
        assert all_gather_time(CLUSTER, ranks, 2 * mb).seconds > \
            all_gather_time(CLUSTER, ranks, mb).seconds

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=8),
        mb=st.floats(min_value=1e6, max_value=1e9),
    )
    def test_congestion_scales_serialisation(self, n, mb):
        ranks = list(range(n))
        base = all_gather_time(CLUSTER, ranks, mb)
        slow = all_gather_time(CLUSTER, ranks, mb, congestion=2.0)
        assert base.seconds < slow.seconds <= 2 * base.seconds + 1e-9


class TestMeshInvariants:
    @settings(max_examples=30, deadline=None)
    @given(par=parallel_configs, data=st.data())
    def test_groups_are_equivalence_classes(self, par, data):
        mesh = DeviceMesh(par)
        rank = data.draw(st.integers(min_value=0,
                                     max_value=par.world_size - 1))
        for dim in ("tp", "cp", "pp", "dp"):
            group = mesh.group_of(rank, dim)
            # Same group from any member's perspective.
            other = data.draw(st.sampled_from(group))
            assert mesh.group_of(other, dim) == group

    @settings(max_examples=30, deadline=None)
    @given(par=parallel_configs)
    def test_dimension_sizes_multiply_to_world(self, par):
        mesh = DeviceMesh(par)
        sizes = [len(mesh.group_of(0, d)) for d in ("tp", "cp", "pp", "dp")]
        assert int(np.prod(sizes)) == par.world_size
