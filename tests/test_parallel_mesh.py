"""Tests for 4D config and device mesh."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.parallel.config import JobConfig, ParallelConfig
from repro.parallel.mesh import DIM_ORDER, DeviceMesh, MeshCoord


class TestParallelConfig:
    def test_world_size(self):
        p = ParallelConfig(tp=8, cp=16, pp=16, dp=8)
        assert p.world_size == 16384
        assert p.grad_shard_degree == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(tp=0)

    def test_describe(self):
        s = ParallelConfig(tp=8, pp=2).describe()
        assert "tp=8" in s and "pp=2" in s


class TestJobConfig:
    def test_token_budget_16m(self):
        short = JobConfig(seq=8192, gbs=2048, ngpu=16384)
        long = JobConfig(seq=131072, gbs=128, ngpu=16384)
        assert short.tokens_per_step == long.tokens_per_step == 16 * 2**20

    def test_batch_per_dp_group(self):
        job = JobConfig(seq=8192, gbs=2048, ngpu=16384)
        p = ParallelConfig(tp=8, cp=1, pp=16, dp=128)
        assert job.batch_per_dp_group(p) == 16
        assert job.micro_batches(p) == 16

    def test_mismatched_world_size_rejected(self):
        job = JobConfig(seq=8192, gbs=2048, ngpu=16384)
        with pytest.raises(ValueError):
            job.batch_per_dp_group(ParallelConfig(tp=8))

    def test_indivisible_gbs_rejected(self):
        job = JobConfig(seq=128, gbs=10, ngpu=8)
        with pytest.raises(ValueError):
            job.batch_per_dp_group(ParallelConfig(tp=1, cp=1, pp=2, dp=4))


class TestDeviceMesh:
    MESH = DeviceMesh(ParallelConfig(tp=4, cp=2, pp=2, dp=2))

    def test_tp_is_innermost(self):
        """[TP, CP, PP, DP] ordering: adjacent ranks differ in TP only
        (Section 5.2 places chatty TP on NVLink)."""
        c0, c1 = self.MESH.coord_of(0), self.MESH.coord_of(1)
        assert (c0.cp, c0.pp, c0.dp) == (c1.cp, c1.pp, c1.dp)
        assert c1.tp == c0.tp + 1

    def test_round_trip(self):
        for rank in range(self.MESH.world_size):
            assert self.MESH.rank_of(self.MESH.coord_of(rank)) == rank

    def test_tp_group_contiguous(self):
        assert self.MESH.group_of(0, "tp") == [0, 1, 2, 3]
        assert self.MESH.group_of(5, "tp") == [4, 5, 6, 7]

    def test_cp_group_stride_tp(self):
        assert self.MESH.group_of(0, "cp") == [0, 4]

    def test_dp_group_outermost_stride(self):
        assert self.MESH.group_of(0, "dp") == [0, 16]

    def test_all_groups_partition_world(self):
        for dim in ("tp", "cp", "pp", "dp"):
            groups = self.MESH.all_groups(dim)
            flat = [r for g in groups for r in g]
            assert sorted(flat) == list(range(self.MESH.world_size))

    def test_dp_cp_group(self):
        group = self.MESH.dp_cp_group_of(0)
        assert len(group) == 4  # dp * cp
        coords = [self.MESH.coord_of(r) for r in group]
        assert all((c.tp, c.pp) == (0, 0) for c in coords)

    def test_pp_neighbor(self):
        rank = 0
        nxt = self.MESH.pp_neighbor(rank, +1)
        assert self.MESH.coord_of(nxt).pp == 1
        assert self.MESH.pp_neighbor(nxt, -1) == rank

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            self.MESH.coord_of(self.MESH.world_size)
        with pytest.raises(ValueError):
            self.MESH.group_of(0, "xx")
        with pytest.raises(ValueError):
            self.MESH.rank_of(MeshCoord(tp=9, cp=0, pp=0, dp=0))
        with pytest.raises(ValueError):
            self.MESH.pp_neighbor(0, 2)

    @given(st.integers(min_value=0, max_value=31))
    def test_group_membership_reflexive(self, rank):
        for dim in ("tp", "cp", "pp", "dp"):
            assert rank in self.MESH.group_of(rank, dim)


class TestExpertParallelMesh:
    """The 5th mesh dimension: [TP, CP, EP, PP, DP], EP between CP and
    PP so the MoE all-to-all rides the fastest links the mesh allows."""

    MESH = DeviceMesh(ParallelConfig(tp=2, cp=2, ep=2, pp=2, dp=2))

    def test_world_size_includes_ep(self):
        assert self.MESH.world_size == 32
        assert ParallelConfig(tp=2, ep=4).world_size == 8

    def test_ep_group_stride_tp_cp(self):
        # EP neighbours differ by the tp * cp inner-block size.
        assert self.MESH.group_of(0, "ep") == [0, 4]
        assert self.MESH.group_of(3, "ep") == [3, 7]

    def test_ep_round_trip(self):
        for rank in range(self.MESH.world_size):
            assert self.MESH.rank_of(self.MESH.coord_of(rank)) == rank

    def test_ep_groups_partition_world(self):
        groups = self.MESH.all_groups("ep")
        flat = [r for g in groups for r in g]
        assert sorted(flat) == list(range(self.MESH.world_size))

    def test_ep1_bitwise_matches_4d_decomposition(self):
        """With ep=1 the 5D formula collapses to the paper's 4D one."""
        mesh = DeviceMesh(ParallelConfig(tp=4, cp=2, pp=2, dp=2))
        p = mesh.parallel
        for rank in range(mesh.world_size):
            c = mesh.coord_of(rank)
            assert c.ep == 0
            assert rank == ((c.dp * p.pp + c.pp) * p.cp + c.cp) * p.tp + c.tp

    def test_dp_cp_group_fixes_ep(self):
        # Each EP rank owns disjoint experts: its gradient group spans
        # only the DP x CP replicas of the same expert shard.
        group = self.MESH.dp_cp_group_of(4)
        assert len(group) == 4  # dp * cp
        coords = [self.MESH.coord_of(r) for r in group]
        assert all((c.tp, c.ep, c.pp) == (0, 1, 0) for c in coords)

    def test_pp_neighbor_keeps_ep(self):
        nxt = self.MESH.pp_neighbor(4, +1)
        c0, c1 = self.MESH.coord_of(4), self.MESH.coord_of(nxt)
        assert c1.pp == c0.pp + 1
        assert (c1.tp, c1.cp, c1.ep, c1.dp) == (c0.tp, c0.cp, c0.ep, c0.dp)

    def test_batch_per_dp_group_divides_by_ep(self):
        job = JobConfig(seq=128, gbs=16, ngpu=32)
        p = ParallelConfig(tp=2, cp=2, ep=2, pp=2, dp=2)
        assert job.batch_per_dp_group(p) == 4  # gbs / (dp * ep)

    def test_ep_describe(self):
        assert "ep=2" in ParallelConfig(tp=2, ep=2, dp=2).describe()
        assert "ep=" not in ParallelConfig(tp=2, dp=2).describe()


class TestMeshGroupArithmetic:
    """``group_of``, ``all_groups`` and ``dp_cp_group_of`` are built
    arithmetically from strides; pin them, order included, against the
    coordinate definition on every mesh with each dim in {1, 2, 3}."""

    SIZES = list(itertools.product((1, 2, 3), repeat=5))

    @staticmethod
    def _group(mesh, rank, dim):
        coord = mesh.coord_of(rank)
        size = getattr(mesh.parallel, dim)
        return [mesh.rank_of(coord.replace_dim(dim, i)) for i in range(size)]

    @classmethod
    def _all_groups(cls, mesh, dim):
        groups = []
        for rank in range(mesh.world_size):
            group = cls._group(mesh, rank, dim)
            if group not in groups:
                groups.append(group)
        return groups

    @staticmethod
    def _dp_cp_group(mesh, rank):
        coord = mesh.coord_of(rank)
        return [
            mesh.rank_of(coord.replace_dim("dp", d).replace_dim("cp", c))
            for d in range(mesh.parallel.dp) for c in range(mesh.parallel.cp)
        ]

    @pytest.mark.parametrize("sizes", SIZES,
                             ids=lambda s: "-".join(map(str, s)))
    def test_matches_coordinate_definition(self, sizes):
        tp, cp, ep, pp, dp = sizes
        mesh = DeviceMesh(ParallelConfig(tp=tp, cp=cp, ep=ep, pp=pp, dp=dp))
        for dim in DIM_ORDER:
            assert mesh.all_groups(dim) == self._all_groups(mesh, dim)
            for rank in range(mesh.world_size):
                assert mesh.group_of(rank, dim) == self._group(mesh, rank, dim)
        for rank in range(mesh.world_size):
            assert mesh.dp_cp_group_of(rank) == self._dp_cp_group(mesh, rank)

    def test_errors_keep_type_and_message(self):
        mesh = DeviceMesh(ParallelConfig(tp=2, cp=3, ep=1, pp=2, dp=2))
        unknown = ("unknown dim 'xx'; expected one of "
                   "('tp', 'cp', 'ep', 'pp', 'dp')")
        for call, message in (
                (lambda: mesh.group_of(24, "tp"), "rank 24 out of range [0, 24)"),
                (lambda: mesh.group_of(-1, "dp"), "rank -1 out of range [0, 24)"),
                (lambda: mesh.group_of(24, "xx"), "rank 24 out of range [0, 24)"),
                (lambda: mesh.group_of(0, "xx"), unknown),
                (lambda: mesh.all_groups("xx"), unknown),
                (lambda: mesh.dp_cp_group_of(24), "rank 24 out of range [0, 24)"),
                (lambda: mesh.dp_cp_group_of(-3), "rank -3 out of range [0, 24)"),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message
