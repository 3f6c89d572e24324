"""The benchmark's three workloads: seeded inputs, one op, its checks.

Each workload is a closed loop of ops.  Op ``i`` draws its inputs only
from ``(workload seed, i)``; the program under test sees just those
inputs, exactly as the matching ``repro`` CLI command would build them.

Every op returns an :class:`OpOutcome`: the simulated values the
sim digest is taken over, the invariant violations (each one fails the
op), and the simulated ratios that left ``[0, 1]`` (counted, never
failed).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.analysis import diff_traces, extract_critical_path
from repro.faults import FaultPlan, run_goodput
from repro.faults.models import (
    CollectiveRetry,
    ComputeStraggler,
    DegradedLink,
    HungRank,
    PeriodicJitter,
)
from repro.hardware.cluster import grand_teton
from repro.model.config import LLAMA3_8B, LLAMA3_405B
from repro.obs.metrics import MetricsRegistry
from repro.parallel.config import (
    LLAMA3_405B_LONG_CONTEXT,
    LLAMA3_405B_SHORT_CONTEXT,
    JobConfig,
    ParallelConfig,
    ZeroStage,
)
from repro.resilience import (
    DetectorModel,
    RunConfig,
    parse_policy,
    parse_taxonomy,
    simulate_run,
)
from repro.train.step import StepReport, simulate_step


@dataclass
class OpOutcome:
    """What one op produced, as the benchmark judges it."""

    #: Simulated outputs, in a fixed order; the sim digest hashes their repr.
    values: Tuple = ()
    #: Broken invariants; any entry fails the op.
    violations: List[str] = field(default_factory=list)
    #: Simulated ratios outside [0, 1], as ``name=value``; counted only.
    ratios_out_of_range: List[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(message)

    def ratio(self, name: str, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            self.ratios_out_of_range.append(f"{name}={value!r}")


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds hash through SHA-512: stable across processes and runs.
    return random.Random(f"{workload}:{seed}:{index}")


def _balanced_pick(workload: str, seed: int, index: int, choices: tuple):
    """Op ``index``'s choice: every block of ``len(choices)`` ops holds each
    choice once, in a seeded order, so the mix never depends on the seed."""
    block, slot = divmod(index, len(choices))
    order = list(choices)
    _rng(workload, seed, -1 - block).shuffle(order)
    return order[slot]


def _check_step(out: OpOutcome, label: str, rep: StepReport) -> None:
    """Invariants and ratios the repo promises for every simulated step."""
    parts = rep.pipeline_seconds + rep.exposed_fsdp_seconds + rep.optimizer_seconds
    out.expect(
        math.isclose(rep.step_seconds, parts, rel_tol=1e-9, abs_tol=1e-12),
        f"{label}: step_seconds {rep.step_seconds!r} != pipeline + exposed_fsdp"
        f" + optimizer {parts!r}")
    out.expect(rep.step_seconds > 0, f"{label}: step_seconds {rep.step_seconds!r} <= 0")
    out.ratio(f"{label}.mfu", rep.mfu)
    out.ratio(f"{label}.bubble_ratio", rep.mean_bubble_ratio)


def _step_values(rep: StepReport) -> Tuple:
    return (rep.schedule, rep.step_seconds, rep.pipeline_seconds,
            rep.exposed_fsdp_seconds, rep.optimizer_seconds,
            rep.mean_bubble_ratio, rep.per_rank_peak_memory_gb,
            len(rep.run.sim.events))


# ---------------------------------------------------------------------------
# step-405b: one `repro step` of Llama 3 405B on 16,384 GPUs (Table 2)
# ---------------------------------------------------------------------------

STEP_PHASES = {
    "8k": (LLAMA3_405B_SHORT_CONTEXT,
           ParallelConfig(tp=8, cp=1, pp=16, dp=128, zero=ZeroStage(2))),
    "131k": (LLAMA3_405B_LONG_CONTEXT,
             ParallelConfig(tp=8, cp=16, pp=16, dp=8, zero=ZeroStage(2))),
}
#: Interleaved kinds only (v = 8 on 126 layers over pp16): the v = 1
#: kinds cost ~10x less and would make the op-time distribution bimodal.
STEP_KINDS = ("flexible", "afab", "dip")
STEP_COMBOS = tuple((phase, kind) for phase in STEP_PHASES for kind in STEP_KINDS)


def _step_inputs(seed: int, index: int) -> dict:
    phase, kind = _balanced_pick("step-405b", seed, index, STEP_COMBOS)
    job, parallel = STEP_PHASES[phase]
    return {"phase": phase, "job": job, "parallel": parallel, "kind": kind}


def _step_setup() -> dict:
    return {"cluster": grand_teton(16384)}


def _step_op(ctx: dict, inputs: dict):
    return simulate_step(LLAMA3_405B, inputs["parallel"], inputs["job"],
                         ctx["cluster"], schedule_kind=inputs["kind"],
                         metrics=MetricsRegistry())


def _step_check(inputs: dict, rep: StepReport) -> OpOutcome:
    out = OpOutcome(values=(inputs["phase"], inputs["kind"]) + _step_values(rep))
    _check_step(out, "step", rep)
    return out


# ---------------------------------------------------------------------------
# faults-analyze: `repro faults` + `repro analyze --fault` on a 64-GPU mesh
# ---------------------------------------------------------------------------

FAULTS_PARALLEL = ParallelConfig(tp=8, cp=1, pp=2, dp=4, zero=ZeroStage(2))
FAULTS_JOB = JobConfig(seq=8192, gbs=16, ngpu=FAULTS_PARALLEL.world_size)
FAULT_KINDS = ("straggler", "link-tp", "link-pp", "link-dp", "jitter", "retry", "hang")


def _make_fault(kind: str, rank: int):
    if kind == "straggler":
        return ComputeStraggler(rank=rank, extra_seconds=0.0, scale=1.25)
    if kind.startswith("link-"):
        return DegradedLink(kind[len("link-"):], rank=rank)
    if kind == "jitter":
        return PeriodicJitter(rank=rank)
    if kind == "retry":
        return CollectiveRetry("dp", rank=rank)
    return HungRank(rank=rank)


def _faults_inputs(seed: int, index: int) -> dict:
    kind = _balanced_pick("faults-analyze", seed, index, FAULT_KINDS)
    rank = _rng("faults-analyze", seed, index).randrange(FAULTS_PARALLEL.world_size)
    return {"kind": kind, "rank": rank,
            "plan": FaultPlan((_make_fault(kind, rank),))}


def _faults_setup() -> dict:
    return {"cluster": grand_teton(FAULTS_JOB.ngpu)}


def _faults_op(ctx: dict, inputs: dict):
    goodput = run_goodput(LLAMA3_8B, FAULTS_PARALLEL, FAULTS_JOB, ctx["cluster"],
                          plan=inputs["plan"], metrics=MetricsRegistry())
    faulted = goodput.faulted
    diff = diff_traces(goodput.healthy.run.sim.events, faulted.run.sim.events)
    path = extract_critical_path(faulted.execution.graph, faulted.execution.events,
                                 makespan=faulted.step_seconds)
    return goodput, diff, path


def _faults_check(inputs: dict, result) -> OpOutcome:
    goodput, diff, path = result
    det = goodput.detection
    out = OpOutcome(values=(
        inputs["kind"], inputs["rank"],
        _step_values(goodput.healthy), _step_values(goodput.faulted),
        goodput.injection.ops_faulted, goodput.injection.extra_seconds,
        sorted(goodput.exposed_comm_delta_seconds.items()),
        None if det is None else (det.detected_rank, det.attribution,
                                  det.levels_descended, det.injected_events),
        diff.regression_seconds, diff.exposed_wait_delta_seconds,
        [(b.kind, b.stream, b.delta_seconds, b.n_ops) for b in diff.buckets()],
        path.n_ops, path.makespan_seconds, sorted(path.seconds_by_stream.items()),
    ))
    _check_step(out, "healthy", goodput.healthy)
    _check_step(out, "faulted", goodput.faulted)
    entries = path.entries
    tiles = (path.exact and bool(entries) and entries[0].start == 0.0
             and entries[-1].end == path.makespan_seconds
             and all(b.start == a.end for a, b in zip(entries, entries[1:])))
    out.expect(tiles, "critical path does not tile [0, makespan] exactly")
    out.ratio("goodput_fraction", goodput.goodput_fraction)
    for stream, share in path.share_by_stream.items():
        out.ratio(f"critical_path.share.{stream}", share)
    return out


# ---------------------------------------------------------------------------
# run-faulted: one `repro run` of Llama 3 8B on 4,096 GPUs
# ---------------------------------------------------------------------------

RUN_JOB = JobConfig(seq=8192, gbs=2048, ngpu=4096)
RUN_STEPS = 2500
RUN_MTBF_SECONDS = 3600.0


def _run_inputs(seed: int, index: int) -> dict:
    return {"config": RunConfig(
        steps=RUN_STEPS, mtbf_seconds=RUN_MTBF_SECONDS,
        policy=parse_policy("tiered:auto"), seed=seed + index,
        taxonomy=parse_taxonomy("production"), mitigation="detect",
        detector=DetectorModel())}


def _run_setup() -> dict:
    return {"cluster": grand_teton(RUN_JOB.ngpu)}


def _run_op(ctx: dict, inputs: dict):
    return simulate_run(LLAMA3_8B, RUN_JOB, ctx["cluster"], inputs["config"],
                        metrics=MetricsRegistry())


def _run_check(inputs: dict, result) -> OpOutcome:
    out = OpOutcome(values=(
        inputs["config"].seed, result.elapsed_seconds, result.steps_completed,
        result.completed, sorted(result.buckets.items()),
        sorted(result.counters.items()), sorted(result.tier_writes.items()),
        len(result.failures), len(result.segments), len(result.sim.events),
    ))
    total = sum(result.buckets.values())
    out.expect(math.isclose(total, result.elapsed_seconds, rel_tol=1e-9, abs_tol=1e-6),
               f"sum(buckets) {total!r} != elapsed_seconds {result.elapsed_seconds!r}")
    negative = {k: v for k, v in result.buckets.items() if v < 0}
    out.expect(not negative, f"negative accounting buckets {negative}")
    out.ratio("goodput_fraction", result.goodput_fraction)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    #: Builds what every op shares (the cluster); part of set-up.
    setup: Callable[[], dict]
    #: ``(seed, index) -> inputs`` of op ``index``.
    inputs: Callable[[int, int], dict]
    #: ``(shared, inputs) -> result``: the timed program call.
    op: Callable[[dict, dict], object]
    #: ``(inputs, result) -> OpOutcome``: checks, outside the timed region.
    check: Callable[[dict, object], OpOutcome]
    #: The layer predicted to have the largest self time.
    dominant_layer: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("step-405b", _step_setup, _step_inputs, _step_op, _step_check,
             "train.lower_step"),
    Workload("faults-analyze", _faults_setup, _faults_inputs, _faults_op, _faults_check,
             "obs.comm_overlap"),
    Workload("run-faulted", _run_setup, _run_inputs, _run_op, _run_check,
             "resilience.run"),
)}
