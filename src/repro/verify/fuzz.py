"""Seeded property-fuzz harness over pipeline-schedule configurations.

Samples valid ``(kind, pp, v, nc, nmb, zero)`` configurations from a
deterministic RNG — the schedule ``kind`` is drawn from the
:mod:`repro.pp.registry`, so newly registered schedules are fuzzed
without touching this module — builds and executes each schedule on the
simulator, runs the full invariant suite
(:mod:`repro.verify.invariants`), and — when a configuration fails —
shrinks it to a minimal reproducer through the shared campaign runner
(:mod:`repro.verify.campaign`).  :func:`config_neighbours` stays within
the sampled kind and only proposes shapes that kind supports, so a shrunk
reproducer is always directly re-buildable.

Determinism is the contract: ``run_fuzz(n, seed)`` visits the same
configurations in the same order on every machine, so a failure report's
``seed`` plus the shrunk config is a complete reproduction recipe (see
``docs/verification.md``).

The ``build`` hook exists for the tests and for CI gates: injecting a
deliberately corrupted schedule builder must make the harness report the
corruption and shrink it — that is how the harness itself is verified.

A second campaign, :func:`run_fault_fuzz`, fuzzes the *fault-injection
loop* instead of schedule structure: it samples a mesh, a compute
straggler, and benign noise faults, and checks that the Section 6.1
top-down search still localises the straggler exactly.  Failures shrink
to the minimal noise-fault set that breaks localisation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.debug.workload import WorkloadSpec
from repro.faults.detect import DetectionScore, score_detection
from repro.faults.models import (
    CollectiveRetry,
    ComputeStraggler,
    DegradedLink,
    FaultPlan,
    PeriodicJitter,
)
from repro.parallel.config import ParallelConfig, ZeroStage
from repro.parallel.mesh import DeviceMesh
from repro.pp.analysis import ScheduleShape
from repro.pp.layout import build_layout
from repro.pp.registry import ScheduleEntry, schedule_entry, schedule_kinds
from repro.pp.schedule import PipelineSchedule
from repro.train.cost import StageCost
from repro.train.executor import execute_pipeline
from repro.verify.campaign import CampaignResult, run_campaign
from repro.verify.invariants import (
    InvariantReport,
    Violation,
    run_invariants,
)

ScheduleBuilder = Callable[[ScheduleShape], PipelineSchedule]

#: P2P latency used when executing fuzzed schedules: non-zero so exposed
#: waits and dependency timing are exercised, small so fuzzing stays fast.
_P2P_SECONDS = 0.25


@dataclass(frozen=True)
class FuzzConfig:
    """One sampled configuration.

    ``kind`` is the registered schedule kind the config builds under.
    ``zero`` is set (to the Section 3.1.3 rule's choice for
    ``bs = nmb``) only when the built schedule's family lands on the
    same side as the rule's pick — otherwise the pairing rule does not
    apply and is skipped.
    """

    pp: int
    v: int
    nc: int
    nmb: int
    zero: Optional[ZeroStage] = None
    kind: str = "flexible"

    @property
    def shape(self) -> ScheduleShape:
        return ScheduleShape(pp=self.pp, v=self.v, nc=self.nc,
                             nmb=self.nmb)

    @property
    def cost(self) -> int:
        """Size measure the shrinker minimises."""
        return self.pp + self.v + self.nc + self.nmb

    def describe(self) -> str:
        zero = self.zero.name if self.zero else "unchecked"
        return (f"kind={self.kind} pp={self.pp} v={self.v} nc={self.nc} "
                f"nmb={self.nmb} ({zero})")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "pp": self.pp, "v": self.v, "nc": self.nc, "nmb": self.nmb,
            "zero": self.zero.name if self.zero else None,
        }


def _entry_or_none(kind: str) -> Optional[ScheduleEntry]:
    try:
        return schedule_entry(kind)
    except ValueError:
        return None


def _family_is_1f1b(kind: str, pp: int, nc: int) -> bool:
    """Family of the schedule ``kind`` actually builds at this shape.

    1F1B-family kinds that can degenerate to AFAB advertise a
    ``*-degenerate-afab`` alias in the registry; for those the
    ``nc < pp`` boundary decides (Section 3.1.1).  Fixed kinds answer
    from their registry family alone; unregistered kinds fall back to
    the boundary heuristic.
    """
    entry = _entry_or_none(kind)
    if entry is None:
        return nc >= pp
    if entry.family != "1f1b":
        return False
    degenerates = any(
        name.endswith("-degenerate-afab") for name in entry.names())
    return nc >= pp if degenerates else True


def _rule_zero(pp: int, nc: int, nmb: int,
               kind: str = "flexible") -> Optional[ZeroStage]:
    """Section 3.1.3 choice for ``bs = nmb``, when the schedule family
    ``kind`` builds at this shape matches the rule's pick; None
    otherwise."""
    rule_1f1b = nmb >= 2 * pp
    if _family_is_1f1b(kind, pp, nc) != rule_1f1b:
        return None
    return ZeroStage.ZERO_1 if rule_1f1b else ZeroStage.ZERO_2


def sample_config(
    rng: np.random.Generator,
    max_pp: int = 8,
    max_nmb: int = 16,
    kinds: Optional[Sequence[str]] = None,
) -> FuzzConfig:
    """Draw one valid configuration, with ``v`` up to 3: ``nc`` is a
    uniform divisor of ``nmb`` so rounds always come out equal, and the
    schedule kind is drawn from the registry (or the ``kinds`` pool) with
    the entry's ``constrain`` hook coercing the shape into the kind's
    support set (e.g. v = 1 for the classic schedules, pp | nmb for
    interleaved 1F1B)."""
    pp = int(rng.integers(1, max_pp + 1))
    v = int(rng.integers(1, 4))
    nmb = int(rng.integers(1, max_nmb + 1))
    divisors = [d for d in range(1, nmb + 1) if nmb % d == 0]
    nc = int(rng.choice(divisors))
    pool = tuple(kinds) if kinds is not None else schedule_kinds()
    kind = str(pool[int(rng.integers(len(pool)))])
    entry = _entry_or_none(kind)
    if entry is not None and entry.constrain is not None:
        shape = entry.constrain(
            ScheduleShape(pp=pp, v=v, nc=nc, nmb=nmb))
        pp, v, nc, nmb = shape.pp, shape.v, shape.nc, shape.nmb
    return FuzzConfig(pp=pp, v=v, nc=nc, nmb=nmb,
                      zero=_rule_zero(pp, nc, nmb, kind), kind=kind)


def check_config(
    config: FuzzConfig,
    build: Optional[ScheduleBuilder] = None,
) -> InvariantReport:
    """Build, execute, and invariant-check one configuration.

    The builder comes from the registry entry for ``config.kind``
    unless ``build`` overrides it (the corruption-injection hook the
    harness's own tests and CI gates use).  Exceptions from the builder
    or the executor are converted into violations (``builder-error``,
    ``deadlock``, ``executor-error``) instead of propagating, so the
    fuzzer can shrink crashing configurations the same way it shrinks
    invariant breaks.
    """
    builder: ScheduleBuilder = (
        build if build is not None else schedule_entry(config.kind).builder)
    try:
        schedule = builder(config.shape)
    except Exception as err:  # noqa: BLE001 - any builder crash is a finding
        return InvariantReport(
            checks_run=("builder",),
            violations=(Violation(
                "builder-error",
                f"schedule builder raised: {err}",
                {"config": config.to_dict(),
                 "error": type(err).__name__}),))
    layout = build_layout(config.pp * config.v, config.pp, config.v)
    try:
        run = execute_pipeline(
            schedule, layout,
            lambda s: StageCost(1.0 * max(s.n_layers, 1), 0.0, 0.0),
            lambda s: StageCost(2.0 * max(s.n_layers, 1), 0.0, 0.0),
            p2p_seconds=_P2P_SECONDS,
        )
    except RuntimeError as err:
        return InvariantReport(
            checks_run=("executor",),
            violations=(Violation(
                "deadlock",
                f"executing the schedule deadlocked: {err}",
                {"config": config.to_dict()}),))
    except Exception as err:  # noqa: BLE001 - any executor crash is a finding
        return InvariantReport(
            checks_run=("executor",),
            violations=(Violation(
                "executor-error",
                f"executing the schedule raised: {err}",
                {"config": config.to_dict(),
                 "error": type(err).__name__}),))
    return run_invariants(schedule, run, zero=config.zero,
                          bs=config.nmb if config.zero else None)


def config_neighbours(config: FuzzConfig) -> List[FuzzConfig]:
    """Strictly-smaller valid neighbours (same kind, still within the
    kind's support set), biggest reduction first."""
    out: List[FuzzConfig] = []
    entry = _entry_or_none(config.kind)

    def add(pp: int, v: int, nc: int, nmb: int) -> None:
        if pp < 1 or v < 1 or not 1 <= nc <= nmb or nmb % nc:
            return
        candidate = FuzzConfig(pp=pp, v=v, nc=nc, nmb=nmb,
                               zero=_rule_zero(pp, nc, nmb, config.kind),
                               kind=config.kind)
        if entry is not None and entry.unsupported_reason(candidate.shape):
            return
        if candidate.cost < config.cost and candidate not in out:
            out.append(candidate)

    pp, v, nc, nmb = config.pp, config.v, config.nc, config.nmb
    add(pp, v, nc, nc)                 # one round
    add(pp, v, nc, nmb - nc)           # one round fewer
    if nmb % 2 == 0 and (nmb // 2) % nc == 0:
        add(pp, v, nc, nmb // 2)       # half the rounds
    add(pp, v, 1, nmb)                 # smallest round size
    for divisor in range(nc - 1, 0, -1):
        if nmb % divisor == 0:
            add(pp, v, divisor, nmb)   # next smaller round size
            break
    add(pp, 1, nc, nmb)                # no interleaving
    add(pp, v - 1, nc, nmb)
    add(pp - 1, v, nc, nmb)
    add(1, v, nc, nmb)                 # no pipeline
    return sorted(out, key=lambda c: c.cost)


def _violations_json(report: InvariantReport) -> List[dict]:
    return [v.to_dict() for v in report.violations]


def run_fuzz(
    cases: int,
    seed: int = 0,
    build: Optional[ScheduleBuilder] = None,
    max_pp: int = 8,
    max_nmb: int = 16,
    kinds: Optional[Sequence[str]] = None,
) -> CampaignResult[FuzzConfig, InvariantReport]:
    """Fuzz ``cases`` sampled configurations and shrink every failure.

    Each case draws its schedule kind from the registry (restricted to
    ``kinds`` when given — the CLI's ``--schedule`` pin and CI's
    per-kind matrix use this); ``build`` overrides the registry builder
    for corruption-injection tests.  The result's ``checks_run`` is the
    union of invariant checks every checked config ran.
    """
    checks_run: Set[str] = set()

    def check(config: FuzzConfig) -> Optional[InvariantReport]:
        report = check_config(config, build)
        checks_run.update(report.checks_run)
        return None if report.ok else report

    result = run_campaign(
        cases, seed,
        lambda rng: sample_config(rng, max_pp=max_pp, max_nmb=max_nmb,
                                  kinds=kinds),
        check, config_neighbours,
        nouns=("config", "violations"), finding_json=_violations_json)
    return dataclasses.replace(result, checks_run=tuple(sorted(checks_run)))

# ----------------------------------------------------------------------
# Fault-randomizing campaign: fuzz the Section 6.1 localisation loop
# ----------------------------------------------------------------------

#: Mesh pool for fault fuzzing: (tp, cp, ep, pp, dp) shapes spanning
#: every dimension pairing the top-down search descends through —
#: including EP meshes, so the token all-to-all level is fuzzed too.
FAULT_FUZZ_MESHES: Tuple[Tuple[int, int, int, int, int], ...] = (
    (4, 2, 1, 1, 1),
    (2, 2, 1, 2, 1),
    (2, 1, 1, 2, 2),
    (2, 2, 1, 2, 2),
    (1, 2, 1, 2, 2),
    (4, 1, 1, 2, 1),
    (2, 2, 1, 1, 2),
    (1, 4, 1, 2, 1),
    (2, 1, 2, 2, 1),
    (1, 2, 2, 1, 2),
    (2, 1, 4, 1, 1),
)

#: Small workload, but with enough compute ops that a straggler's excess
#: dominates every benign noise fault the sampler can draw (see below).
FAULT_FUZZ_WORKLOAD = WorkloadSpec(steps=2, layers=3)


@dataclass(frozen=True)
class FaultScenario:
    """One sampled fault-localisation case.

    The victim is a :class:`~repro.faults.models.ComputeStraggler` adding
    ``extra_seconds`` per compute op; ``noise`` holds benign faults
    (jitter, mildly degraded links, transient retries) whose combined
    lateness is well under one victim op, so exact localisation must
    survive them.  Hangs are deliberately absent from noise: a multi-second
    stall legitimately out-blames the victim.
    """

    tp: int
    cp: int
    pp: int
    dp: int
    victim: int
    extra_seconds: float
    ep: int = 1
    noise: Tuple[object, ...] = ()

    @property
    def parallel(self) -> ParallelConfig:
        return ParallelConfig(tp=self.tp, cp=self.cp, ep=self.ep,
                              pp=self.pp, dp=self.dp)

    @property
    def plan(self) -> FaultPlan:
        return FaultPlan(
            (ComputeStraggler(rank=self.victim,
                              extra_seconds=self.extra_seconds),)
            + self.noise)

    @property
    def cost(self) -> int:
        """Size measure the shrinker minimises: the noise-fault count."""
        return len(self.noise)

    def describe(self) -> str:
        mesh = f"tp={self.tp} cp={self.cp} pp={self.pp} dp={self.dp}"
        if self.ep > 1:
            mesh += f" ep={self.ep}"
        noise = "; ".join(f.describe() for f in self.noise)
        return (f"{mesh} victim={self.victim} "
                f"extra={self.extra_seconds:g}s noise=[{noise}]")

    def to_dict(self) -> dict:
        return {
            "mesh": {"tp": self.tp, "cp": self.cp, "ep": self.ep,
                     "pp": self.pp, "dp": self.dp},
            "victim": self.victim,
            "extra_seconds": self.extra_seconds,
            "noise": [f.to_dict() for f in self.noise],
        }


def sample_fault_scenario(rng: np.random.Generator) -> FaultScenario:
    """Draw one scenario: a mesh from the pool, a victim rank, a victim
    strength in [0.4, 0.8) s/op, and 0-2 benign noise faults (total
    lateness bounded around 0.2 s — an order of magnitude under the
    victim's first-op excess)."""
    tp, cp, ep, pp, dp = FAULT_FUZZ_MESHES[
        int(rng.integers(len(FAULT_FUZZ_MESHES)))]
    world = tp * cp * ep * pp * dp
    victim = int(rng.integers(world))
    extra = 0.4 + 0.4 * float(rng.random())
    multi_dims = [d for d, size in
                  (("tp", tp), ("cp", cp), ("ep", ep), ("pp", pp),
                   ("dp", dp))
                  if size > 1]
    noise: List[object] = []
    for _ in range(int(rng.integers(0, 3))):
        kind = int(rng.integers(3))
        if kind == 0:
            noise.append(PeriodicJitter(
                rank=int(rng.integers(world)),
                period=int(rng.integers(2, 5)),
                extra_seconds=0.01 + 0.03 * float(rng.random())))
        elif kind == 1:
            dim = multi_dims[int(rng.integers(len(multi_dims)))]
            noise.append(DegradedLink(
                dim=dim, rank=int(rng.integers(world)),
                scale=1.05 + 0.1 * float(rng.random())))
        else:
            dim = multi_dims[int(rng.integers(len(multi_dims)))]
            noise.append(CollectiveRetry(
                dim=dim, retries=int(rng.integers(1, 3)),
                extra_seconds=0.02 + 0.03 * float(rng.random())))
    return FaultScenario(tp=tp, cp=cp, ep=ep, pp=pp, dp=dp, victim=victim,
                         extra_seconds=extra, noise=tuple(noise))


def check_fault_scenario(
    scenario: FaultScenario,
) -> Tuple[bool, DetectionScore]:
    """Run the localisation loop on one scenario, on
    :data:`FAULT_FUZZ_WORKLOAD`.

    ok means the search pinned exactly the victim rank *and* attributed
    it to compute — the property the noise faults must not break.
    """
    mesh = DeviceMesh(scenario.parallel)
    score, _ = score_detection(mesh, scenario.plan,
                               spec=FAULT_FUZZ_WORKLOAD)
    ok = (score.detected_rank == scenario.victim
          and score.attribution == "compute")
    return ok, score


def fault_scenario_neighbours(scenario: FaultScenario) -> List[FaultScenario]:
    """The scenario minus one noise fault, for each noise fault in turn —
    shrinking yields the minimal noise set that breaks localisation."""
    return [dataclasses.replace(
                scenario,
                noise=scenario.noise[:i] + scenario.noise[i + 1:])
            for i in range(len(scenario.noise))]


def run_fault_fuzz(
    cases: int,
    seed: int = 0,
) -> CampaignResult[FaultScenario, DetectionScore]:
    """Fuzz ``cases`` fault scenarios on :data:`FAULT_FUZZ_WORKLOAD` and
    shrink every localisation miss."""

    def check(scenario: FaultScenario) -> Optional[DetectionScore]:
        ok, score = check_fault_scenario(scenario)
        return None if ok else score

    return run_campaign(cases, seed, sample_fault_scenario, check,
                        fault_scenario_neighbours,
                        nouns=("scenario", "score"),
                        finding_json=DetectionScore.to_dict)
