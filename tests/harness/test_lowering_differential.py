"""Differential tests: step-graph passes == the frozen reference lowering.

Every case lowers one (schedule, layout, costs) triple through both
:mod:`tests.harness.reference_lowering` and the live code, then executes,
summarises and memory-tracks both.  Every ``StepOp`` field (floats by
bits, deps in order), every ``MemoryTimeline`` sample, every
``PipelineRun`` field and the two simulator timelines must match.

The grid covers every registered schedule kind over pp in {1, 2, 4},
v > 1 where the kind interleaves, nc < pp, nc = pp and nc > pp, all three
ZeRO modes, TP/CP/EP communication on and off, split backward (the
zero-bubble kind), and heterogeneous stage and micro-batch scales — on
synthetic per-stage costs and on the real ``CostModel`` of dense and
MoE meshes.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple

import pytest

from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage
from repro.pp.analysis import ScheduleShape
from repro.pp.grad_memory import track_memory
from repro.pp.layout import PipelineLayout, build_layout
from repro.pp.registry import schedule_entry, schedule_kinds
from repro.pp.schedule import PipelineSchedule, build_schedule
from repro.train.cost import CostModel, StageCost
from repro.train.executor import execute_graph, summarize_pipeline_execution
from repro.train.lowering import lower_pipeline, lower_step
from repro.train.step import _layer_params_on_rank
from tests.harness import reference_lowering as ref
from tests.harness.diffing import compare_simulators

STEP_OP_FIELDS = ("uid", "kind", "rank", "stream", "duration", "name",
                  "deps", "pipeline_op", "wait_name")
SAMPLE_FIELDS = ("op_index", "op_label", "grad_bytes", "activation_bytes",
                 "reduce_scatter_launched")
ZEROS = (ZeroStage.ZERO_1, ZeroStage.ZERO_2, ZeroStage.ZERO_3)
NMB = 8


def _same(a: object, b: object) -> bool:
    """Equal values of the same type; floats compared bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return (list(a) == list(b)
                and all(_same(a[k], b[k]) for k in a))
    return a == b


def _diff_fields(what: str, a: object, b: object, fields) -> List[str]:
    return [f"{what}.{f}: reference {getattr(a, f)!r} != {getattr(b, f)!r}"
            for f in fields if not _same(getattr(a, f), getattr(b, f))]


def diff_graphs(reference, live) -> List[str]:
    problems: List[str] = []
    if len(reference.programs) != len(live.programs):
        return [f"pp {len(reference.programs)} != {len(live.programs)}"]
    for rank, (rp, lp) in enumerate(zip(reference.programs, live.programs)):
        if len(rp) != len(lp):
            problems.append(f"rank {rank}: {len(rp)} ops != {len(lp)}")
            continue
        for i, (a, b) in enumerate(zip(rp, lp)):
            problems += _diff_fields(f"rank {rank} op {i}", a, b,
                                     STEP_OP_FIELDS)
    return problems[:20]


def diff_runs(reference, live) -> List[str]:
    problems = _diff_fields("run", reference, live, (
        "makespan", "per_rank_busy", "p2p_seconds", "start_time",
        "per_rank_comm"))
    if reference.schedule is not live.schedule:
        problems.append("run.schedule differs")
    if list(reference.op_events) != list(live.op_events):
        problems.append("run.op_events keys differ")
    elif any(reference.op_events[k] != live.op_events[k]
             for k in reference.op_events):
        problems.append("run.op_events values differ")
    problems += compare_simulators(reference.sim, live.sim)
    return problems


def diff_timelines(reference, live) -> List[str]:
    problems = _diff_fields("timeline", reference, live,
                            ("ppr", "zero", "reduce_scatter_count"))
    if len(reference.samples) != len(live.samples):
        return problems + ["timeline: sample counts differ"]
    for i, (a, b) in enumerate(zip(reference.samples, live.samples)):
        problems += _diff_fields(f"sample {i}", a, b, SAMPLE_FIELDS)
    return problems[:20]


# ----------------------------------------------------------------------
# The case grid
# ----------------------------------------------------------------------


class Case(NamedTuple):
    kind: str
    shape: ScheduleShape

    def __str__(self) -> str:
        s = self.shape
        hetero = "-hetero" if s.is_heterogeneous else ""
        return f"{self.kind}-pp{s.pp}-v{s.v}-nc{s.nc}{hetero}"


def _cases() -> Iterator[Case]:
    seen = set()
    for kind in schedule_kinds():
        entry = schedule_entry(kind)
        for pp in (1, 2, 4):
            # nc < pp, nc = pp, nc > pp (pp=1 has no nc < pp).
            for nc in sorted({max(pp // 2, 1), pp, 2 * pp}):
                for hetero in (False, True):
                    shape = ScheduleShape(pp=pp, v=2, nc=nc, nmb=NMB)
                    if entry.constrain is not None:
                        shape = entry.constrain(shape)
                    if hetero:
                        stages = shape.pp * shape.v
                        shape = ScheduleShape(
                            pp=shape.pp, v=shape.v, nc=shape.nc,
                            nmb=shape.nmb,
                            stage_compute_scale=tuple(
                                1.0 + 0.125 * (s % 3) for s in range(stages)),
                            microbatch_compute_scale=tuple(
                                1.0 + 0.0625 * (m % 4)
                                for m in range(shape.nmb)))
                    if entry.unsupported_reason(shape) is not None:
                        continue
                    case = Case(kind, shape)
                    if str(case) not in seen:
                        seen.add(str(case))
                        yield case


CASES = tuple(_cases())


def _synthetic_costs(tp: bool, cp: bool, ep: bool):
    """Per-stage costs that differ by stage and by direction."""

    def cost(scale: float):
        def fn(stage) -> StageCost:
            base = 1e-3 * scale * (1.0 + 0.1 * stage.stage
                                   + 0.01 * stage.n_layers)
            return StageCost(
                compute_seconds=base,
                tp_comm_seconds=base * 0.3 if tp else 0.0,
                cp_comm_seconds=base * 0.2 if cp else 0.0,
                ep_comm_seconds=base * 0.25 if ep else 0.0)
        return fn

    return cost(1.0), cost(2.0)


#: (tp, cp, ep) communication on/off for the synthetic-cost grid; the
#: cases take them in turn, so every chain shape (compute alone, or
#: headed by tp, cp or ep) meets every schedule kind.
COMM_MIXES = ((False, False, False), (True, False, False),
              (False, True, True), (True, True, True))
PIPELINE_CASES = tuple((case, COMM_MIXES[i % len(COMM_MIXES)])
                       for i, case in enumerate(CASES))


def _both_pipelines(schedule: PipelineSchedule, layout: PipelineLayout,
                    fwd, bwd, p2p: float):
    return (ref.lower_pipeline(schedule, layout, fwd, bwd, p2p),
            lower_pipeline(schedule, layout, fwd, bwd, p2p))


def _check_execution(schedule, reference_graph, live_graph, p2p) -> None:
    problems = diff_graphs(reference_graph, live_graph)
    assert not problems, "\n".join(problems)
    ref_exec = ref.execute_graph(reference_graph)
    live_exec = execute_graph(live_graph)
    assert ref_exec.events == live_exec.events
    assert ref_exec.wait_events == live_exec.wait_events
    problems = diff_runs(
        ref.summarize_pipeline_execution(ref_exec, schedule, p2p),
        summarize_pipeline_execution(live_exec, schedule, p2p))
    assert not problems, "\n".join(problems)


class TestPipelineLowering:
    @pytest.mark.parametrize(
        "case,mix", PIPELINE_CASES,
        ids=[f"{case}-tp{mix[0]:d}cp{mix[1]:d}ep{mix[2]:d}"
             for case, mix in PIPELINE_CASES])
    def test_lower_pipeline_identical(self, case, mix):
        schedule = build_schedule(case.shape, case.kind)
        layout = build_layout(32, case.shape.pp, case.shape.v)
        fwd, bwd = _synthetic_costs(*mix)
        reference, live = _both_pipelines(schedule, layout, fwd, bwd, 2e-4)
        _check_execution(schedule, reference, live, 2e-4)

    def test_split_backward_explicit_halves(self):
        # Explicit BI/BW pricing reaches lowering only through lower_step
        # (simulate_step passes the cost model's split).
        shape = ScheduleShape(pp=4, v=1, nc=4, nmb=NMB)
        schedule = build_schedule(shape, "zero-bubble")
        assert schedule.uses_split_backward
        layout = build_layout(32, 4, 1)
        fwd, bwd = _synthetic_costs(True, True, True)
        half, _ = _synthetic_costs(True, False, True)
        step = dict(zero=ZeroStage.ZERO_1,
                    fsdp_allgather_cost=lambda s: 1e-4 * s.n_layers,
                    fsdp_reduce_scatter_cost=lambda s: 2e-4 * s.n_layers,
                    optimizer_cost=lambda ppr: 3e-4)
        for extra in ({"backward_input_cost": half},
                      {"backward_weight_cost": half},
                      {"backward_input_cost": half,
                       "backward_weight_cost": fwd}):
            args = (schedule, layout, fwd, bwd, 1e-4)
            reference = ref.lower_step(*args, **step, **extra)
            live = lower_step(*args, **step, **extra)
            _check_execution(schedule, reference, live, 1e-4)

    def test_missing_producer_raises_the_same_error(self):
        shape = ScheduleShape(pp=2, v=1, nc=2, nmb=4)
        good = build_schedule(shape, "1f1b-noninterleaved")
        programs = list(good.programs)
        # Rank 1 loses its first backward, so rank 0's backward of that
        # micro-batch waits on a gradient no rank sends.
        prog = list(programs[1])
        prog.remove(next(op for op in prog if op.kind.value == "B"))
        programs[1] = tuple(prog)
        bad = PipelineSchedule(name=good.name, shape=shape,
                               programs=tuple(programs))
        layout = build_layout(32, 2, 1)
        fwd, bwd = _synthetic_costs(True, False, False)
        with pytest.raises(ValueError) as expected:
            ref.lower_pipeline(bad, layout, fwd, bwd, 1e-4)
        with pytest.raises(ValueError) as actual:
            lower_pipeline(bad, layout, fwd, bwd, 1e-4)
        assert str(actual.value) == str(expected.value)


def _step_inputs(model, parallel: ParallelConfig, job: JobConfig,
                 kind: str, v: int, nc: int, hetero: bool):
    """Lowering inputs exactly as ``simulate_step`` wires them."""
    cluster = grand_teton(job.ngpu)
    shape = ScheduleShape(pp=parallel.pp, v=v, nc=nc,
                          nmb=job.micro_batches(parallel))
    entry = schedule_entry(kind)
    if entry.constrain is not None:
        shape = entry.constrain(shape)
    if hetero:
        shape = ScheduleShape(
            pp=shape.pp, v=shape.v, nc=shape.nc, nmb=shape.nmb,
            stage_compute_scale=tuple(
                1.0 + 0.25 * (s % 2) for s in range(shape.pp * shape.v)),
            microbatch_compute_scale=tuple(
                1.0 + 0.125 * (m % 3) for m in range(shape.nmb)))
    schedule = build_schedule(shape, kind)
    layout = build_layout(model.n_layers, shape.pp, shape.v)
    cost = CostModel(model, parallel, job, cluster)
    per_layer = _layer_params_on_rank(model, parallel)
    kwargs = dict(
        backward_input_cost=cost.backward_input_seconds,
        backward_weight_cost=cost.backward_weight_seconds,
        zero=parallel.zero,
        fsdp_allgather_cost=lambda s: cost.fsdp_allgather_seconds(
            s.n_layers * per_layer),
        fsdp_reduce_scatter_cost=lambda s: cost.fsdp_reduce_scatter_seconds(
            s.n_layers * per_layer),
        optimizer_cost=lambda ppr: cost.optimizer_seconds(
            layout.layers_on_rank(ppr) * per_layer),
    )
    args = (schedule, layout, cost.forward_seconds, cost.backward_seconds,
            cost.p2p_seconds())
    return schedule, layout, args, kwargs


#: (name, model, parallel without zero, seq, gbs) of the real-cost grid.
MESHES = (
    ("tp2_pp2_dp2", LLAMA3_8B, dict(tp=2, pp=2, dp=2), 8192, 16),
    ("tp2_cp2_pp2", LLAMA3_8B, dict(tp=2, cp=2, pp=2, dp=1), 8192, 8),
    ("tp1_pp4_dp2", LLAMA3_8B, dict(tp=1, pp=4, dp=2), 4096, 16),
    ("moe_tp2_ep4_pp2", LLAMA3_8B.moe_variant(8),
     dict(tp=2, cp=1, ep=4, pp=2, dp=1), 4096, 16),
    ("tp8_pp1_dp1", LLAMA3_8B, dict(tp=8, pp=1, dp=1), 4096, 8),
)


class TestStepLowering:
    @pytest.mark.parametrize("zero", ZEROS, ids=lambda z: z.name)
    @pytest.mark.parametrize("mesh", MESHES, ids=lambda m: m[0])
    @pytest.mark.parametrize("kind", schedule_kinds())
    def test_lower_step_identical(self, kind, mesh, zero):
        _, model, dims, seq, gbs = mesh
        parallel = ParallelConfig(zero=zero, **dims)
        job = JobConfig(seq=seq, gbs=gbs, ngpu=parallel.world_size)
        pp = parallel.pp
        nmb = job.micro_batches(parallel)
        v = 2 if pp > 1 else 1
        # Alternate the three nc regimes and the heterogeneous shape over
        # the grid so each appears under every kind.
        variant = (ZEROS.index(zero) + len(mesh[0])) % 3
        nc = (max(pp // 2, 1), pp, 2 * pp)[variant]
        if nmb % nc:
            nc = pp
        schedule, layout, args, kwargs = _step_inputs(
            model, parallel, job, kind, v, nc, hetero=variant == 1)
        reference = ref.lower_step(*args, **kwargs)
        live = lower_step(*args, **kwargs)
        _check_execution(schedule, reference, live, args[-1])

        for ppr in range(pp):
            weights = {vs: float(stage.n_layers)
                       for vs, stage in enumerate(layout.stages_of_rank(ppr))}
            mem = dict(grad_bytes_per_stage=3.0e8,
                       act_bytes_per_microbatch=1.7e9,
                       shard_degree=parallel.grad_shard_degree,
                       stage_weights=weights)
            problems = diff_timelines(
                ref.track_memory(schedule, ppr, zero, **mem),
                track_memory(schedule, ppr, zero, **mem))
            assert not problems, "\n".join(problems)


class TestTrackMemory:
    @pytest.mark.parametrize("case", CASES, ids=str)
    @pytest.mark.parametrize("zero", ZEROS, ids=lambda z: z.name)
    def test_timelines_identical(self, case, zero):
        schedule = build_schedule(case.shape, case.kind)
        for ppr in range(case.shape.pp):
            for kwargs in ({}, {"grad_bytes_per_stage": 0.1,
                                "act_bytes_per_microbatch": 0.3,
                                "shard_degree": 3,
                                "stage_weights": {0: 1.0 / 3, 1: 7.0}}):
                problems = diff_timelines(
                    ref.track_memory(schedule, ppr, zero, **kwargs),
                    track_memory(schedule, ppr, zero, **kwargs))
                assert not problems, "\n".join(problems)

    @pytest.mark.parametrize("zero", ZEROS, ids=lambda z: z.name)
    @pytest.mark.parametrize("kind", ("flexible", "afab", "dip"))
    def test_summation_order_on_deep_interleaving(self, kind, zero):
        """v = 4 with weights that are not exact in binary: a running
        total summed in any other order or grouping changes the bits."""
        shape = ScheduleShape(pp=2, v=4, nc=2, nmb=NMB)
        schedule = build_schedule(shape, kind)
        kwargs = {"grad_bytes_per_stage": 0.7, "act_bytes_per_microbatch": 0.3,
                  "shard_degree": 3,
                  "stage_weights": {vs: 1.0 / (vs + 3) for vs in range(4)}}
        for ppr in range(shape.pp):
            problems = diff_timelines(
                ref.track_memory(schedule, ppr, zero, **kwargs),
                track_memory(schedule, ppr, zero, **kwargs))
            assert not problems, "\n".join(problems)

