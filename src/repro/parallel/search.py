"""One design-space search over parallel layouts and pipeline schedules.

The Section 5 planner, the schedule autotuner (Sections 3.1, 7.1) and the
HBM what-if (Section 8.1) share :class:`Candidate` and one definition of
each stage: :func:`axes` enumerates, :func:`sizes`/:func:`family_pick`
derive (Sections 5.1, 3.1.3), :func:`trial_memory_gb` is the analytic
gate, :func:`evaluate` simulates once, :func:`within_budget` is the
simulated gate and :func:`rank_key` ranks.  A simulated planner candidate
carries both memory numbers, since an analytic estimate is only useful
when its error is known (arXiv 2411.06465).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.hardware.cluster import ClusterSpec
from repro.model.config import TextModelConfig
from repro.parallel.config import JobConfig, ParallelConfig, ZeroStage
from repro.parallel.memory import estimate_rank_memory
from repro.pp.analysis import (
    ScheduleShape,
    default_nc,
    peak_in_flight_microbatches,
)
from repro.pp.registry import schedule_entry, schedule_kinds


@dataclass(frozen=True)
class Candidate:
    """One design point and what the search learned about it.

    ``cp``/``dp``/``zero``/``bs`` are None when the derivation fails;
    ``kind`` None is the Section 3.1.3 family pick, resolved on
    simulation; ``v``/``nc`` are what the step was simulated with.
    ``reason`` says why ``feasible`` is False.
    """

    tp: int
    pp: int
    ep: int = 1
    cp: Optional[int] = None
    dp: Optional[int] = None
    zero: Optional[ZeroStage] = None
    kind: Optional[str] = None
    v: Optional[int] = None
    nc: Optional[int] = None
    bs: Optional[int] = None
    memory_gb: Optional[float] = None  # analytic gate's rank-0 peak
    tflops_per_gpu: Optional[float] = None
    simulated_peak_gb: Optional[float] = None  # worst rank, once simulated
    bubble_ratio: Optional[float] = None
    feasible: bool = False
    reason: str = ""

    @classmethod
    def of(cls, parallel: ParallelConfig, job: JobConfig, **fields):
        """A candidate for a fixed, already-derived layout."""
        return cls(tp=parallel.tp, pp=parallel.pp, ep=parallel.ep,
                   cp=parallel.cp, dp=parallel.dp, zero=parallel.zero,
                   bs=job.gbs // (parallel.dp * parallel.ep), **fields)

    @property
    def parallel(self) -> ParallelConfig:
        return ParallelConfig(tp=self.tp, cp=self.cp, ep=self.ep, pp=self.pp,
                              dp=self.dp, zero=self.zero)

    @property
    def schedule(self) -> Optional[str]:
        return None if self.bs is None else family_pick(self.bs, self.pp)[1]

    def to_dict(self) -> dict:
        """The ``repro.plan`` candidate row (``v`` only once simulated)."""
        row = {"tp": self.tp, "pp": self.pp, "ep": self.ep, "cp": self.cp,
               "dp": self.dp, "bs": self.bs, "schedule": self.schedule,
               "schedule_kind": self.kind,
               "zero": None if self.zero is None else self.zero.value,
               "memory_gb": self.memory_gb,
               "simulated_peak_gb": self.simulated_peak_gb,
               "tflops_per_gpu": self.tflops_per_gpu,
               "feasible": self.feasible, "reason": self.reason}
        if self.v is not None:
            row["v"] = self.v
        return row

    def describe(self) -> str:
        """One schedule-search line of a simulated candidate."""
        tag = "" if self.feasible else "  [over budget]"
        return (f"{self.kind:8s} nc={self.nc:<3d} v={self.v:<2d} "
                f"{self.tflops_per_gpu:5.0f} TFLOPs  "
                f"{self.simulated_peak_gb:5.1f} GiB  "
                f"bubble {self.bubble_ratio:.3f}{tag}")


def power_of_two_at_least(x: float) -> int:
    """The smallest power of two >= ``x`` (1 for ``x <= 1``), exactly."""
    return 1 << (math.ceil(x) - 1).bit_length() if x > 1 else 1


def min_tp(job: JobConfig, cluster: ClusterSpec) -> int:
    """Section 5.1 step 1: bs >= pp at cp = 1 needs tp >= ngpu / gbs (the
    pp terms cancel); capped at the node size so TP stays on NVLink."""
    return min(power_of_two_at_least(job.ngpu / job.gbs),
               cluster.gpus_per_node)


def ep_axis(model: TextModelConfig, job: JobConfig) -> Sequence[int]:
    """``(1,)`` for dense models (the 4D search); for MoE, also every
    power of two dividing the expert count (whole experts per EP rank)
    that fits in the GPU budget."""
    if not model.is_moe:
        return (1,)
    n = model.n_experts
    return tuple(1 << i for i in range(n.bit_length())
                 if n % (1 << i) == 0 and 1 << i <= job.ngpu)


def axes(model: TextModelConfig, job: JobConfig, cluster: ClusterSpec,
         max_pp: int, schedule_kind: Optional[str] = None,
         ) -> Iterator[Tuple[int, int, int, Optional[str]]]:
    """(tp, pp, ep, kind) in planner order: tp from :func:`min_tp` to the
    node size, pp = 1, 2, 4, ... to ``max_pp``, then EP sizes, then kinds
    (the family pick, one pinned kind, or ``"all"`` registered kinds)."""
    kinds = ((None,) if schedule_kind is None
             else schedule_kinds() if schedule_kind == "all"
             else (schedule_kind,))
    eps = ep_axis(model, job)
    tp = min_tp(job, cluster)
    while tp <= cluster.gpus_per_node:
        pp = 1
        while pp <= max_pp and tp * pp <= job.ngpu:
            for ep in eps:
                if tp * pp * ep <= job.ngpu:
                    for kind in kinds:
                        yield tp, pp, ep, kind
            pp *= 2
        tp *= 2


def sizes(job: JobConfig, tp: int, pp: int,
          ep: int = 1) -> Tuple[int, Optional[int], Optional[int]]:
    """Section 5.1 steps 4–5: ``(cp, dp, bs)``.  cp is the smallest power
    of two with cp >= ngpu / (gbs * tp), restoring bs >= pp by replacing
    DP; bs = gbs / (dp * ep) as EP ranks carry distinct micro-batches.
    dp and bs are None when tp * cp * ep * pp does not divide ngpu."""
    cp = power_of_two_at_least(job.ngpu / (job.gbs * tp))
    if job.ngpu % (tp * cp * ep * pp):
        return cp, None, None
    dp = job.ngpu // (tp * cp * ep * pp)
    return cp, dp, job.gbs // (dp * ep)


def family_pick(bs: int, pp: int) -> Tuple[ZeroStage, str]:
    """Section 3.1.3: ZeRO-1 + 1F1B when bs >= 2 * pp, else ZeRO-2 + AFAB."""
    if bs >= 2 * pp:
        return ZeroStage.ZERO_1, "1f1b"
    return ZeroStage.ZERO_2, "afab"


def rank0_memory_gb(model: TextModelConfig, parallel: ParallelConfig,
                    job: JobConfig, v: int, nmb: int) -> float:
    """Analytic peak memory of pipeline rank 0 (embedding, first layers)
    under the default round size :func:`default_nc`."""
    nc = default_nc(parallel.pp, nmb)
    layers_rank0 = math.ceil(model.n_layers / parallel.pp)
    if parallel.pp == 1:
        # No pipeline: one micro-batch's activations alive at a time.
        v, in_flight = 1, 1
    else:
        in_flight = peak_in_flight_microbatches(
            parallel.pp, 0, v, min(nc, nmb), nmb,
            all_forward_all_backward=(nc < parallel.pp))
    return estimate_rank_memory(
        model, parallel, job, layers_on_rank=layers_rank0,
        in_flight_microbatches=in_flight, virtual_stages=v,
        has_embedding=True, has_output_head=(parallel.pp == 1)).total_gb


def trial_memory_gb(model: TextModelConfig, job: JobConfig, tp: int,
                    pp: int, ep: int = 1) -> float:
    """The analytic gate: rank-0 peak of the Section 5.1 trial (ZeRO-1 at
    cp = 1, one layer per virtual stage), shared by first fit and sweep so
    cost-aware only re-ranks depths the derivation considers safe."""
    dp_cp = job.ngpu // (tp * ep * pp)
    trial = ParallelConfig(tp=tp, cp=1, ep=ep, pp=pp, dp=dp_cp,
                           zero=ZeroStage.ZERO_1)
    nmb = max(max(job.gbs // (dp_cp * ep), 1) // job.mbs, 1)
    return rank0_memory_gb(model, trial, job, math.ceil(model.n_layers / pp),
                           nmb)


def _over_hbm(memory_gb: float, capacity_gb: float) -> str:
    return (f"rank-0 peak {memory_gb:.1f} GiB exceeds "
            f"{capacity_gb:.0f} GiB usable HBM")


def first_fit(model: TextModelConfig, job: JobConfig, cluster: ClusterSpec,
              max_pp: int, capacity_gb: float) -> Tuple[int, int, int, float]:
    """Section 5.1 step 3: the first (tp, pp, ep) of :func:`axes` that
    passes the analytic gate, with its trial memory.  Raises
    :class:`ConfigError` naming the nearest miss when none does."""
    nearest: Optional[Tuple[int, int, int, float]] = None
    for tp, pp, ep, _ in axes(model, job, cluster, max_pp):
        mem = trial_memory_gb(model, job, tp, pp, ep)
        if mem <= capacity_gb:
            return tp, pp, ep, mem
        if nearest is None or mem < nearest[3]:
            nearest = (tp, pp, ep, mem)
    message = "no (tp, pp) combination fits the model in memory on this cluster"
    if nearest is not None:
        tp, pp, ep, mem = nearest
        message += (f"; nearest is tp={tp} pp={pp}"
                    f"{f' ep={ep}' if ep > 1 else ''}: "
                    f"{_over_hbm(mem, capacity_gb)}")
    raise ConfigError(message)


def within_budget(cand: Candidate, budget_gb: Optional[float]) -> Candidate:
    """The simulated gate: a feasible candidate stays feasible only if its
    worst rank's simulated peak fits ``budget_gb`` (None: no budget)."""
    if (not cand.feasible or budget_gb is None
            or cand.simulated_peak_gb <= budget_gb):
        return cand
    return replace(cand, feasible=False, reason=(
        f"simulated peak {cand.simulated_peak_gb:.1f} GiB exceeds "
        f"{budget_gb:g} GiB budget"))


def evaluate(model: TextModelConfig, job: JobConfig, cluster: ClusterSpec,
             cand: Candidate, recompute: bool = False,
             congestion: float = 1.0) -> Candidate:
    """Simulate one derived candidate (``v`` defaults to one layer per
    virtual stage, ``nc`` to :func:`default_nc`) after the kind's
    ``constrain`` and ``supports`` hooks; a ``ValueError`` or
    ``RuntimeError`` becomes the reason."""
    from repro.train.step import simulate_step  # deferred: train -> parallel

    cand = replace(cand, kind=cand.kind or cand.schedule)
    kind, pp, nmb = cand.kind, cand.pp, max(cand.bs // job.mbs, 1)
    entry = schedule_entry(kind)
    try:
        shape = ScheduleShape(
            pp=pp, nmb=nmb,
            v=math.ceil(model.n_layers / pp) if cand.v is None else cand.v,
            nc=default_nc(pp, nmb) if cand.nc is None else cand.nc)
        if entry.constrain is not None:
            constrained = entry.constrain(shape)
            if constrained.nmb != nmb:
                return replace(cand, reason=(
                    f"schedule {kind!r} needs nmb={constrained.nmb}, "
                    f"batch gives nmb={nmb}"))
            shape = constrained
        unsupported = entry.unsupported_reason(shape)
        if unsupported:
            return replace(cand, reason=(
                f"schedule {kind!r} unsupported: {unsupported}"))
        cand = replace(cand, v=shape.v, nc=shape.nc)
        rep = simulate_step(model, cand.parallel, job, cluster,
                            schedule_kind=kind, v=shape.v, nc=shape.nc,
                            recompute=recompute, congestion=congestion)
    except (ValueError, RuntimeError) as exc:
        return replace(cand, reason=f"simulation failed: {exc}")
    return replace(cand, tflops_per_gpu=rep.tflops_per_gpu,
                   simulated_peak_gb=rep.max_peak_memory_gb,
                   bubble_ratio=rep.mean_bubble_ratio, feasible=True)


def rank_key(cand: Candidate) -> Tuple[bool, float]:
    """Feasible first, then by simulated TFLOPs/GPU; sorting is stable."""
    return not cand.feasible, -(cand.tflops_per_gpu or 0.0)


def sweep(model: TextModelConfig, job: JobConfig, cluster: ClusterSpec,
          max_pp: int, capacity_gb: float,
          schedule_kind: Optional[str] = None) -> List[Candidate]:
    """Every :func:`axes` point derived, passed through the analytic gate,
    simulated if it passes, and ranked best first."""
    out = []
    for tp, pp, ep, kind in axes(model, job, cluster, max_pp, schedule_kind):
        cp, dp, bs = sizes(job, tp, pp, ep)
        if dp is None:
            out.append(Candidate(tp=tp, pp=pp, ep=ep, cp=cp, kind=kind, reason=(
                f"ngpu={job.ngpu} not divisible by tp*cp*ep*pp")))
            continue
        mem = trial_memory_gb(model, job, tp, pp, ep)
        cand = Candidate(tp=tp, pp=pp, ep=ep, cp=cp, dp=dp, kind=kind, bs=bs,
                         zero=family_pick(bs, pp)[0], memory_gb=mem)
        out.append(evaluate(model, job, cluster, cand) if mem <= capacity_gb
                   else replace(cand, reason=_over_hbm(mem, capacity_gb)))
    return sorted(out, key=rank_key)
