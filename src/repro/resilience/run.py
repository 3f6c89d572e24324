"""Multi-step run simulator: the first time axis above the step.

Composes the single-step simulator (:func:`repro.train.step.simulate_step`
prices what a step costs on a given fleet) with a seeded failure process
(:mod:`repro.resilience.failures` — fail-stop at node/rack/pod
granularity, gray degradation, silent corruption), a checkpoint policy
(:mod:`repro.resilience.policy`, optionally tiered across peer/local/
remote stores per :mod:`repro.resilience.tiers`), the Section 6.1
detect–mitigate loop for gray failures
(:mod:`repro.resilience.mitigation`), and two recovery strategies for
permanent capacity loss — elastic replanning
(:func:`repro.parallel.planner.replan_for_gpu_count`: continue degraded
on the shrunken fleet) or wait-for-replacement.

The output answers the operators' question from Section 6.1 at 16K GPUs:
*what fraction of GPU wall-clock turned into tokens?*  Every second of
the run lands in exactly one accounting bucket:

========================  ==============================================
``productive``            committed steps, at the healthy full-fleet rate
``degraded``              extra step time paid on a shrunken fleet
``fault``                 transient-straggler inflation of committed steps
``gray``                  persistent gray-failure tax on committed steps
``retry``                 collective timeout/backoff ladders
``rework``                uncommitted work lost to a failure or rollback
``checkpoint``            checkpoint writes, on every tier
``restart``               restart overhead + checkpoint restores
``waiting``               idle fleet waiting for a node replacement
========================  ==============================================

so ``sum(buckets) == elapsed`` exactly (a pinned test invariant).

Work is *durably* committed only by remote-tier checkpoint writes (and
by finishing the run): peer and local checkpoints advance the restart
point cheaply, but a failure domain that destroys them (rack loss kills
peer replicas; any node loss invalidates the sharded local tier) can
force recovery to roll back past them, so the accounting keeps per-step
attempt records in flight until a durable commit and reworks exactly the
attempts beyond whatever restore point recovery actually achieved.

Silent corruption is modelled as ground truth the simulated system
cannot see: checkpoints written after the (unknown) onset are tainted,
validation happens only at durable commits and at run end, and a crash
restore that happens to pick a tainted record silently re-enters the
corrupted state.  Detection forces a rollback past every tainted record
to the newest clean one.

The run timeline is a log on rank 0: each entry starts where the previous
one ended — steps on the ``compute`` stream, checkpoint/restart I/O on
``io``, retry ladders on ``dp`` (it is the gradient sync that rides the
scale-out network), and zero-duration markers for failures, replans,
detector verdicts, and mitigation decisions — so ``repro run --trace``
exports the whole run as a Perfetto timeline.  The run keeps the log as
flat rows (:attr:`RunResult.log`); :attr:`RunResult.sim` replays them
through :meth:`repro.sim.engine.Simulator.record` the first time it is
read, so a run nobody traces builds no
:class:`~repro.sim.engine.TraceEvent`.  A retry ladder of ``k``
failed attempts is ``k`` watchdog timeouts ``{name}#try{i}`` (tagged
``retry``), each followed by its backoff ``{name}#backoff{i}`` (tagged
``retry``, ``backoff``) when that backoff is positive, then the
zero-length successful attempt ``{name}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.built_on_read import BuiltOnRead
from repro.errors import ConfigError
from repro.faults.models import fault_preset
from repro.hardware.cluster import ClusterSpec
from repro.model.config import TextModelConfig
from repro.obs.metrics import MetricsRegistry
from repro.ordered_sum import ordered_sum
from repro.parallel.config import JobConfig
from repro.parallel.planner import Plan, plan_parallelism, replan_for_gpu_count
from repro.pp.registry import schedule_entry
from repro.resilience.failures import (
    CORRELATED_DOMAINS,
    FailureEvent,
    FailureProcess,
    FailureTaxonomy,
)
from repro.resilience.mitigation import (
    DetectorModel,
    MitigationDecision,
    choose_mitigation,
    gray_fault_plan,
    localise_gray_fault,
)
from repro.resilience.policy import CheckpointPolicy, YoungDaly
from repro.resilience.tiers import (
    TIER_NAMES,
    TieredCheckpoint,
    tier_intervals as derive_tier_intervals,
    tier_read_seconds,
    tier_survives,
    tier_write_seconds,
)
from repro.sim.collectives import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.sim.engine import Simulator, TraceEvent
from repro.train.step import simulate_step

#: Wall-clock bucket names, in report order.
BUCKETS = ("productive", "degraded", "fault", "gray", "retry",
           "rework", "checkpoint", "restart", "waiting")

#: Mitigation strategies for detected gray failures.
MITIGATIONS = ("tolerate", "detect")


@dataclass(frozen=True)
class RunConfig:
    """Everything a multi-step run needs beyond (model, job, cluster)."""

    steps: int
    mtbf_seconds: float
    policy: CheckpointPolicy = field(default_factory=YoungDaly)
    seed: int = 0
    #: On permanent node loss: replan on the shrunken fleet (True) or
    #: keep the plan and wait ``replacement_seconds`` for a spare (False).
    elastic: bool = True
    replacement_seconds: float = 1800.0
    #: Fixed restart cost per abort: scheduler round-trip, process
    #: launch, NCCL (re)initialisation — paid before any restore I/O.
    restart_overhead_seconds: float = 120.0
    retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY
    #: Safety valve: a no-checkpoint run under a harsh MTBF may never
    #: finish; stop (``completed=False``) after this many step attempts.
    max_step_attempts: Optional[int] = None
    #: The failure model (default: the ``iid`` fail-stop preset).
    taxonomy: FailureTaxonomy = field(default_factory=FailureTaxonomy)
    #: What to do about gray failures: ``tolerate`` runs degraded
    #: forever; ``detect`` arms the Section 6.1 detect–mitigate loop.
    mitigation: str = "tolerate"
    detector: DetectorModel = field(default_factory=DetectorModel)

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.mtbf_seconds <= 0:
            raise ConfigError("mtbf_seconds must be > 0")
        if self.replacement_seconds < 0 or self.restart_overhead_seconds < 0:
            raise ConfigError("recovery costs must be >= 0")
        if self.mitigation not in MITIGATIONS:
            raise ConfigError(
                f"mitigation must be one of {MITIGATIONS} "
                f"(got {self.mitigation!r})")

    @property
    def attempt_limit(self) -> int:
        if self.max_step_attempts is not None:
            return self.max_step_attempts
        return max(50 * self.steps, 1000)


@dataclass(frozen=True)
class FleetSegment:
    """Pricing of one fleet capacity, reused across its lifetime."""

    capacity_ngpu: int
    plan: Plan
    step_seconds: float
    straggler_extra_seconds: float
    tier_write_seconds: Dict[str, float]
    tier_read_seconds: Dict[str, float]

    def to_dict(self) -> dict:
        par = self.plan.parallel
        return {
            "capacity_ngpu": self.capacity_ngpu,
            "plan_ngpu": par.world_size,
            "parallel": {"tp": par.tp, "cp": par.cp, "pp": par.pp,
                         "dp": par.dp, "zero": par.zero.value},
            "schedule": self.plan.schedule,
            "step_seconds": self.step_seconds,
            "straggler_extra_seconds": self.straggler_extra_seconds,
            # The single-tier (remote) price, kept for v1 report rows.
            "checkpoint_write_seconds": self.tier_write_seconds["remote"],
            "checkpoint_read_seconds": self.tier_read_seconds["remote"],
            "tier_write_seconds": dict(sorted(
                self.tier_write_seconds.items())),
            "tier_read_seconds": dict(sorted(
                self.tier_read_seconds.items())),
        }


@dataclass
class RunResult:
    """Outcome of one simulated multi-step run."""

    config: RunConfig
    initial_plan: Plan
    tokens_per_step: int
    ideal_step_seconds: float
    interval_steps: Optional[int]
    steps_completed: int
    completed: bool
    truncated_reason: Optional[str]
    elapsed_seconds: float
    buckets: Dict[str, float]
    counters: Dict[str, int]
    failures: List[dict]
    segments: List[dict]
    #: The rank-0 run timeline, built from :attr:`log` on first read.
    sim: Simulator = BuiltOnRead()
    #: Per-tier interval in steps (single-tier policies report ``remote``).
    tier_intervals: Dict[str, Optional[int]] = field(default_factory=dict)
    #: Checkpoint writes per tier.
    tier_writes: Dict[str, int] = field(default_factory=dict)
    #: Every restore: which tier recovery picked after which domain.
    restores: List[dict] = field(default_factory=list)
    #: Detect–mitigate decisions, fully costed.
    mitigations: List[dict] = field(default_factory=list)
    #: The run log as rows ``(name, kind, stream, end, group, tags)``;
    #: each entry starts where the previous one ended.
    log: List[tuple] = field(default_factory=list, repr=False)

    def _build(self, name: str) -> Simulator:
        """Replay the log into a simulator, in order, on rank 0."""
        sim = Simulator()
        record = sim.record
        start = 0.0
        for label, kind, stream, end, group, tags in self.log:
            record(TraceEvent(label, kind, 0, stream, start, end, group,
                              tags))
            start = end
        return sim

    @property
    def ideal_seconds(self) -> float:
        """Wall-clock of a failure-free full-fleet run."""
        return self.config.steps * self.ideal_step_seconds

    @property
    def goodput_fraction(self) -> float:
        """Committed work at the ideal rate, over elapsed wall-clock."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return (self.steps_completed * self.ideal_step_seconds
                / self.elapsed_seconds)

    @property
    def achieved_tokens(self) -> int:
        return self.steps_completed * self.tokens_per_step

    @property
    def ideal_tokens(self) -> float:
        """Tokens an ideal run would have produced in the same elapsed."""
        if self.ideal_step_seconds <= 0:
            return 0.0
        return (self.elapsed_seconds / self.ideal_step_seconds
                * self.tokens_per_step)

    @property
    def tokens_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.achieved_tokens / self.elapsed_seconds


def _price_segment(
    model: TextModelConfig,
    cluster: ClusterSpec,
    capacity_ngpu: int,
    plan: Plan,
) -> FleetSegment:
    """Price a fleet capacity: healthy step, straggler step, checkpoint."""
    seg_job = plan.job
    healthy = simulate_step(model, plan.parallel, seg_job, cluster,
                            schedule_kind=plan.schedule)
    straggled = simulate_step(
        model, plan.parallel, seg_job, cluster, schedule_kind=plan.schedule,
        fault_plan=fault_preset("straggler-default",
                                plan.parallel.world_size))
    ngpu = plan.parallel.world_size
    return FleetSegment(
        capacity_ngpu=capacity_ngpu,
        plan=plan,
        step_seconds=healthy.step_seconds,
        straggler_extra_seconds=max(
            straggled.step_seconds - healthy.step_seconds, 0.0),
        tier_write_seconds={
            tier: tier_write_seconds(tier, model, cluster, ngpu)
            for tier in TIER_NAMES},
        tier_read_seconds={
            tier: tier_read_seconds(tier, model, cluster, ngpu)
            for tier in TIER_NAMES},
    )


def simulate_run(
    model: TextModelConfig,
    job: JobConfig,
    cluster: ClusterSpec,
    config: RunConfig,
    metrics: Optional[MetricsRegistry] = None,
    schedule_kind: Optional[str] = None,
) -> RunResult:
    """Simulate ``config.steps`` optimizer steps under failures.

    ``schedule_kind`` pins every fleet segment (initial plan and elastic
    replans alike) to a registered pipeline schedule instead of the
    planner's Section 3.1.3 family pick; ``None`` keeps the pick.

    The checkpoint interval(s) are derived once, from the *initial*
    fleet's step and per-tier checkpoint prices — matching practice,
    where the interval is an operator setting, not something retuned
    mid-incident.  A single-tier policy is the ``remote`` tier alone:
    it is priced, written and restored exactly like a tiered policy
    with only that tier set, and differs only in its event labels.

    Failure semantics per arrival kind:

    * ``transient_straggler`` inflates the in-flight step by the priced
      ``straggler-default`` delta, then the fleet runs healthy again;
    * ``collective_retry`` plays the retry ladder of
      ``config.retry_policy`` on the timeline (timeout attempts tagged
      ``retry``, gaps tagged ``retry``+``backoff``); an arrival whose
      attempt count exceeds the budget escalates to an abort;
    * ``node_loss`` / ``rack_loss`` / ``pod_loss`` abort the step and
      permanently remove the failure domain (one node, one rack's worth
      of nodes, one pod's worth), destroying every checkpoint on tiers
      that do not survive that domain; the fleet either replans
      (``elastic=True``) or waits for replacement;
    * ``gray`` attaches a persistent degraded-component tax to every
      subsequent step until the detect–mitigate loop (when armed via
      ``mitigation="detect"``) evicts the culprit host;
    * ``silent_corruption`` taints all later checkpoints and is caught
      only at the next durable commit or at run end, forcing a rollback
      to the newest clean checkpoint.

    Every abort pays ``restart_overhead_seconds``, restores the newest
    checkpoint that *survived* the failure's domain (priced at that
    tier's read cost on the current segment), and resumes from its step —
    from step 0 when nothing survives (or under :class:`NoCheckpoint`).
    """
    taxonomy = config.taxonomy
    proc = FailureProcess(
        config.mtbf_seconds, seed=config.seed, taxonomy=taxonomy)
    if schedule_kind is not None:
        schedule_entry(schedule_kind)  # raises on unknown kinds
    initial_plan = plan_parallelism(model, job, cluster)
    if schedule_kind is not None:
        initial_plan = replace(initial_plan, schedule=schedule_kind)
    segments: Dict[int, FleetSegment] = {}
    # Pricing depends only on the plan, and many capacities replan to the
    # same one (a lost node rarely leaves a count gbs still divides):
    # price each distinct plan once.
    priced: Dict[tuple, FleetSegment] = {}

    def segment_for(capacity: int) -> FleetSegment:
        if capacity not in segments:
            if capacity == job.ngpu:
                plan = initial_plan
            else:
                plan = replan_for_gpu_count(
                    model, replace(job, ngpu=capacity), cluster, capacity)
                if schedule_kind is not None:
                    plan = replace(plan, schedule=schedule_kind)
            key = (plan.parallel, plan.job, plan.schedule)
            if key in priced:
                segments[capacity] = replace(
                    priced[key], capacity_ngpu=capacity, plan=plan)
            else:
                segments[capacity] = priced[key] = _price_segment(
                    model, cluster, capacity, plan)
        return segments[capacity]

    seg = segment_for(job.ngpu)
    ideal_step = seg.step_seconds
    tier_intervals = derive_tier_intervals(
        config.policy, seg.step_seconds, seg.tier_write_seconds,
        config.mtbf_seconds)
    interval = tier_intervals.get("remote")
    # Event labels: single-tier runs keep the v1 names
    # (``checkpoint:{step}``, ``restore:step{step}``) and no tier tag.
    tiered = isinstance(config.policy, TieredCheckpoint)

    buckets = {name: 0.0 for name in BUCKETS}
    counters = {
        "steps_attempted": 0, "checkpoints": 0, "restarts": 0,
        "replans": 0, "retry_ladders": 0, "retry_attempts": 0,
        "node_losses": 0, "transient_stragglers": 0, "retry_exhaustions": 0,
        "rack_losses": 0, "pod_losses": 0, "gray_failures": 0,
        "silent_corruptions": 0, "corruption_rollbacks": 0,
        "gray_detected": 0, "gray_tolerated": 0, "false_positives": 0,
        "evictions": 0,
    }
    tier_writes = {tier: 0 for tier in TIER_NAMES}
    failures: List[dict] = []
    segment_log: List[dict] = [dict(seg.to_dict(), from_seconds=0.0)]
    restores: List[dict] = []
    mitigation_log: List[dict] = []

    t = 0.0
    log: List[tuple] = []  # the run log (see RunResult.log)
    log_end = 0.0  # end of the newest log entry
    done = 0        # steps finished since the run began (incl. uncommitted)
    capacity = job.ngpu
    # (step_no, duration, productive, degraded, fault, retry, gray) per
    # step attempt not yet flushed by a durable (remote) commit.
    pending: List[tuple] = []
    pending_events = proc.next_failure()
    truncated_reason: Optional[str] = None
    # Checkpoint records per tier, in write order: {"step", "tier",
    # "time", "tainted"}.  Taint is simulation ground truth, invisible to
    # restore selection.  ``newest`` holds each tier's highest-step record
    # (the first written among equals), so a restore reads three entries
    # instead of scanning every record.
    records: Dict[str, List[dict]] = {tier: [] for tier in TIER_NAMES}
    newest: Dict[str, Optional[dict]] = dict.fromkeys(TIER_NAMES)
    last_ckpt = {tier: 0 for tier in tier_intervals}
    # Ground truth for silent corruption: None while state is clean.
    corruption_onset: Optional[float] = None
    # Active gray faults: {"kind", "rank", "age", "tolerated", "given_up"}.
    active_gray: List[dict] = []
    # Per gray fault on a segment: its step tax and whether the Section
    # 6.1 search localises it, each computed at most once.
    gray_facts: Dict[tuple, object] = {}
    armed = config.mitigation == "detect" and taxonomy.has_gray
    det_rng = config.detector.rng(config.seed) if armed else None

    def emit(stream: str, duration: float, name: str, kind: str,
             tags: tuple, group: tuple = ()) -> None:
        nonlocal log_end
        log_end += duration
        log.append((name, kind, stream, log_end, group, tags))

    def flush_pending() -> None:
        """Durable commit: attempts become final bucket accounting."""
        for _step, _dur, prod, degr, fault, retry, gray in pending:
            buckets["productive"] += prod
            buckets["degraded"] += degr
            buckets["fault"] += fault
            buckets["retry"] += retry
            buckets["gray"] += gray
        pending.clear()

    def rollback_pending(restore_step: int) -> None:
        """Rework every attempt beyond the restore point; keep the rest
        in flight (a deeper rollback may still rework them)."""
        kept = []
        for p in pending:
            if p[0] > restore_step:
                buckets["rework"] += p[1]
            else:
                kept.append(p)
        pending[:] = kept

    def newest_record(domain: str) -> Optional[dict]:
        """Newest checkpoint restorable after ``domain`` (ties toward the
        cheaper read: ``TIER_NAMES`` is cheapest first).  Taint is *not*
        consulted: the system cannot see it."""
        best = None
        for tier in TIER_NAMES:
            rec = newest[tier]
            if (rec is not None and tier_survives(tier, domain)
                    and (best is None or rec["step"] > best["step"])):
                best = rec
        return best

    def keep_records(keep) -> None:
        """Drop every record ``keep`` rejects; re-find each tier's newest."""
        for tier, recs in records.items():
            recs[:] = [rec for rec in recs if keep(rec)]
            newest[tier] = max(recs, key=lambda rec: rec["step"],
                               default=None)

    def tier_label(tier: str) -> tuple:
        """(name infix, tags) naming ``tier`` on checkpoint events."""
        return (f"{tier}:", (tier,)) if tiered else ("", ())

    def write_checkpoint(tier: str, extra_tags: tuple = ()) -> None:
        nonlocal t
        cost = seg.tier_write_seconds[tier]
        infix, tier_tags = tier_label(tier)
        emit("io", cost, f"checkpoint:{infix}{done}", "io",
             ("checkpoint",) + tier_tags + extra_tags)
        buckets["checkpoint"] += cost
        counters["checkpoints"] += 1
        tier_writes[tier] += 1
        t += cost
        rec = {"step": done, "tier": tier, "time": t,
               "tainted": corruption_onset is not None}
        records[tier].append(rec)
        if newest[tier] is None or done > newest[tier]["step"]:
            newest[tier] = rec
        last_ckpt[tier] = done
        if tier == "remote":
            flush_pending()

    def do_restore(domain: str, reason: str) -> Optional[dict]:
        """Pay restart + restore; roll state back to what survived."""
        nonlocal t, done, corruption_onset
        rec = newest_record(domain)
        restore_step = rec["step"] if rec is not None else 0
        rollback_pending(restore_step)
        done = restore_step
        for tier in last_ckpt:
            last_ckpt[tier] = min(last_ckpt[tier], restore_step)
        emit("io", config.restart_overhead_seconds,
             f"restart:{counters['restarts']}", "io", ("restart",))
        buckets["restart"] += config.restart_overhead_seconds
        t += config.restart_overhead_seconds
        if rec is not None:
            cost = seg.tier_read_seconds[rec["tier"]]
            emit("io", cost,
                 f"restore:{tier_label(rec['tier'])[0]}step{restore_step}",
                 "io", ("restart", "restore"))
            buckets["restart"] += cost
            t += cost
            restores.append({
                "time_seconds": t, "reason": reason, "domain": domain,
                "tier": rec["tier"], "step": restore_step,
            })
        counters["restarts"] += 1
        # A tainted restore silently re-enters the corrupted state; a
        # clean one (or a from-scratch restart) discards it.
        if rec is not None and rec["tainted"]:
            if corruption_onset is None:
                corruption_onset = rec["time"]
        else:
            corruption_onset = None
        return rec

    def lost_gpus_for(ev: FailureEvent) -> int:
        """GPUs removed by one fail-stop event on the current fleet (a
        tail rack or pod may be ragged)."""
        cur_nodes = max(capacity // cluster.gpus_per_node, 1)
        if ev.kind == "node_loss":
            return cluster.gpus_per_node
        per_rack = cluster.nodes_per_rack
        per_pod = per_rack * cluster.racks_per_pod
        size = per_rack if ev.kind == "rack_loss" else per_pod
        groups = math.ceil(cur_nodes / size)
        lost = min(size, cur_nodes - ev.index(groups) * size)
        return lost * cluster.gpus_per_node

    def shrink_fleet(lost_gpus: int) -> bool:
        """Elastic replan after losing ``lost_gpus``; False = infeasible."""
        nonlocal seg, capacity, truncated_reason
        new_capacity = capacity - lost_gpus
        try:
            new_seg = segment_for(new_capacity)
        except ValueError:
            truncated_reason = f"no feasible plan at {new_capacity} GPUs"
            return False
        seg = new_seg
        capacity = new_capacity
        counters["replans"] += 1
        emit("io", 0.0, f"replan:{seg.plan.parallel.world_size}gpu",
             "marker", ("replan",))
        segment_log.append(dict(seg.to_dict(), from_seconds=t))
        return True

    def arrive(during_outage: bool) -> FailureEvent:
        """Take the pending failure and apply what every arrival does:
        log it, count gray faults and hardware losses, attach gray faults
        to the fleet, and drop the checkpoints a hardware loss destroys.
        The caller handles the rest of its kind."""
        nonlocal pending_events
        ev = pending_events
        pending_events = proc.next_failure()
        failures.append({
            "time_seconds": ev.time_seconds, "kind": ev.kind,
            "failed_attempts": (ev.failed_attempts
                                if ev.kind == "collective_retry" else 0),
            "gray_kind": ev.gray_kind,
            "during_outage": during_outage,
        })
        if ev.kind == "gray":
            counters["gray_failures"] += 1
            active_gray.append({
                "kind": ev.gray_kind,
                "rank": ev.index(seg.plan.parallel.world_size),
                "age": 0, "tolerated": False, "given_up": False,
            })
        elif ev.kind in CORRELATED_DOMAINS:
            counters[ev.kind.replace("loss", "losses")] += 1
            keep_records(lambda rec: tier_survives(rec["tier"], ev.kind))
        return ev

    def coalesce_outage() -> None:
        """Failures arriving while the fleet was already down coalesce
        into this outage: nothing was training (no work to lose) and
        repairs proceed in parallel.  Hardware losses still shrink an
        elastic fleet; gray faults attach (the flaky component is still
        there when training resumes); everything else is a no-op."""
        while (truncated_reason is None
               and pending_events.time_seconds < t):
            ev = arrive(during_outage=True)
            if config.elastic and ev.kind in CORRELATED_DOMAINS:
                shrink_fleet(lost_gpus_for(ev))

    def gray_fact(gray: dict, fact: str) -> float | bool:
        """``"tax"`` (per-step seconds) or ``"localised"`` (bool) of one
        gray fault on the current segment."""
        world = seg.plan.parallel.world_size
        rank = min(gray["rank"], world - 1)
        key = (capacity, gray["kind"], rank, fact)
        if key not in gray_facts:
            if fact == "tax":
                faulted = simulate_step(
                    model, seg.plan.parallel, seg.plan.job, cluster,
                    schedule_kind=seg.plan.schedule,
                    fault_plan=gray_fault_plan(
                        gray["kind"], rank, taxonomy.gray_compute_scale,
                        taxonomy.gray_link_scale))
                gray_facts[key] = max(
                    faulted.step_seconds - seg.step_seconds, 0.0)
            else:
                gray_facts[key] = localise_gray_fault(
                    seg.plan.parallel, gray["kind"], rank,
                    taxonomy.gray_compute_scale, taxonomy.gray_link_scale)
        return gray_facts[key]

    def handle_corruption() -> None:
        """A validation point caught silent corruption: identify and
        purge the tainted records, then roll back past them."""
        nonlocal corruption_onset
        emit("io", 0.0, "failure:silent_corruption", "marker",
             ("failure", "silent_corruption"))
        counters["corruption_rollbacks"] += 1
        keep_records(lambda rec: not rec["tainted"])
        corruption_onset = None
        do_restore("none", "silent_corruption")
        coalesce_outage()

    def run_detector() -> bool:
        """One armed pass of the detect–mitigate loop.  True = the fleet
        went through an eviction outage (the caller restarts its step)."""
        if det_rng is None:
            return False
        if config.detector.false_alarm(det_rng):
            counters["false_positives"] += 1
            emit("io", 0.0, "detect:false_positive", "marker",
                 ("detect", "false_positive"))
            mitigation_log.append(MitigationDecision(
                step=done, time_seconds=t, gray_kind="", rank=-1,
                decision="false_positive", detected_after_steps=0,
                localised=False, tax_seconds_per_step=0.0,
                projected_tolerate_seconds=0.0,
                projected_evict_seconds=0.0).to_dict())
        for gray in active_gray:
            if gray["tolerated"] or gray["given_up"]:
                continue
            if not config.detector.detects(gray["age"], det_rng):
                continue
            counters["gray_detected"] += 1
            emit("io", 0.0, f"detect:gray_{gray['kind']}", "marker",
                 ("detect", "gray"))
            if mitigate_gray(gray):
                return True
        return False

    def mitigate_gray(gray: dict) -> bool:
        """Cost out evict-vs-tolerate for a detected gray fault and act.
        True = eviction happened (an outage the caller must absorb)."""
        nonlocal t
        tax = gray_fact(gray, "tax")
        remaining = config.steps - done
        localised = gray_fact(gray, "localised")
        # Drain to the fastest tier that actually checkpoints; with no
        # checkpointing at all, eviction loses everything since the
        # newest surviving record (priced into the projection).
        drain_tier = next(
            (tier for tier in TIER_NAMES
             if tier_intervals.get(tier) is not None), None)
        rec = newest_record("none")
        floor = rec["step"] if rec is not None else 0
        fixed = config.restart_overhead_seconds
        extra_per_step = 0.0
        evictable = True
        if drain_tier is not None:
            fixed += seg.tier_write_seconds[drain_tier]
        else:
            fixed += (done - floor) * seg.step_seconds
        if config.elastic:
            try:
                new_seg = segment_for(capacity - cluster.gpus_per_node)
            except ValueError:
                evictable = False
                new_seg = seg
            else:
                extra_per_step = max(
                    new_seg.step_seconds - seg.step_seconds, 0.0)
        else:
            new_seg = seg
            fixed += config.replacement_seconds
        read_tier = drain_tier if drain_tier is not None else (
            rec["tier"] if rec is not None else None)
        if read_tier is not None:
            fixed += new_seg.tier_read_seconds[read_tier]
        decision, tolerate_cost, evict_cost = choose_mitigation(
            tax, remaining, fixed, extra_per_step)
        if not evictable:
            decision = "tolerate"
        emit("io", 0.0, f"mitigate:{decision}", "marker",
             ("mitigate", decision))
        mitigation_log.append(MitigationDecision(
            step=done, time_seconds=t, gray_kind=gray["kind"],
            rank=gray["rank"], decision=decision,
            detected_after_steps=gray["age"], localised=localised,
            tax_seconds_per_step=tax,
            projected_tolerate_seconds=tolerate_cost,
            projected_evict_seconds=evict_cost).to_dict())
        if decision == "tolerate":
            counters["gray_tolerated"] += 1
            gray["tolerated"] = True
            return False
        # ---- evict-and-replan ------------------------------------------
        counters["evictions"] += 1
        if drain_tier is not None:
            write_checkpoint(drain_tier, extra_tags=("drain",))
        if config.elastic:
            shrink_fleet(cluster.gpus_per_node)
        else:
            emit("io", config.replacement_seconds, "wait:replacement",
                 "io", ("waiting",))
            buckets["waiting"] += config.replacement_seconds
            t += config.replacement_seconds
        do_restore("none", "eviction")
        if localised:
            active_gray.remove(gray)
        else:
            # The search blamed the wrong host: the eviction bought
            # nothing, and re-detecting the same fault would evict
            # forever — give up and run degraded.
            gray["given_up"] = True
        coalesce_outage()
        return True

    while True:
        if done >= config.steps:
            if corruption_onset is not None:
                # Final validation before declaring the run done.
                handle_corruption()
                if truncated_reason is not None:
                    break
                continue
            break
        if counters["steps_attempted"] >= config.attempt_limit:
            truncated_reason = (
                f"gave up after {counters['steps_attempted']} step attempts "
                f"({done}/{config.steps} steps committed)")
            break
        counters["steps_attempted"] += 1
        base = seg.step_seconds
        transient_extra = 0.0
        # Gray faults attach to steps *after* their arrival: tax what is
        # active as this step starts.
        taxed = [g for g in active_gray]
        gray_extra = ordered_sum(gray_fact(g, "tax") for g in taxed)
        ladders: List[int] = []
        abort = None  # (reason, FailureEvent)

        def completion_time() -> float:
            overhead = ordered_sum(
                config.retry_policy.retry_overhead_seconds(k)
                for k in ladders)
            return t + base + transient_extra + gray_extra + overhead

        # Absorb every failure landing before this step would complete;
        # transient ones stretch the step (which can pull in more).
        while abort is None and pending_events.time_seconds < completion_time():
            ev = arrive(during_outage=False)
            if ev.kind == "transient_straggler":
                counters["transient_stragglers"] += 1
                transient_extra += seg.straggler_extra_seconds
            elif ev.kind == "collective_retry":
                if config.retry_policy.exhausted_by(ev.failed_attempts):
                    counters["retry_exhaustions"] += 1
                    abort = ("retry_exhausted", ev)
                else:
                    ladders.append(ev.failed_attempts)
            elif ev.kind == "silent_corruption":
                counters["silent_corruptions"] += 1
                if corruption_onset is None:
                    corruption_onset = ev.time_seconds
            elif ev.kind in CORRELATED_DOMAINS:
                abort = (ev.kind, ev)

        if abort is None:
            # Retry ladders first (the gradient sync that stalled), then
            # the step's compute span; both chained on the timeline.
            retry_overhead = 0.0
            policy = config.retry_policy
            for i, attempts in enumerate(ladders):
                counters["retry_ladders"] += 1
                counters["retry_attempts"] += attempts
                name = f"retry:step{done}.{i}"
                for k in range(attempts):
                    emit("dp", policy.timeout_seconds, f"{name}#try{k}",
                         "comm", ("retry",), (0,))
                    backoff = policy.backoff_seconds(k)
                    if backoff > 0:
                        emit("dp", backoff, f"{name}#backoff{k}", "comm",
                             ("retry", "backoff"))
                emit("dp", 0.0, name, "comm", (), (0,))
                retry_overhead += policy.retry_overhead_seconds(attempts)
            tags = ("step",)
            # A replanned fleet is normally slower than the ideal one,
            # but never let a surprisingly fast replan make the split
            # negative: productive is capped at the ideal rate.
            degraded_extra = max(base - ideal_step, 0.0)
            productive = base - degraded_extra
            if capacity < job.ngpu:
                tags += ("degraded",)
            if transient_extra > 0:
                tags += ("transient_fault",)
            if gray_extra > 0:
                tags += ("gray",)
            emit("compute", base + transient_extra + gray_extra,
                 f"step:{done}", "compute", tags)
            t = completion_time()
            done += 1
            pending.append((
                done, base + transient_extra + gray_extra + retry_overhead,
                productive, degraded_extra, transient_extra, retry_overhead,
                gray_extra))
            for g in taxed:
                g["age"] += 1
            corruption_caught = False
            for tier in TIER_NAMES:
                tier_interval = tier_intervals.get(tier)
                if tier_interval is None or done >= config.steps:
                    continue
                if done - last_ckpt[tier] < tier_interval:
                    continue
                if tier == "remote" and corruption_onset is not None:
                    # The durable commit validates state and catches the
                    # corruption instead of persisting it.
                    handle_corruption()
                    corruption_caught = True
                    break
                write_checkpoint(tier)
            if corruption_caught:
                continue
            if armed:
                # One pass of the detect–mitigate loop per completed
                # step; an eviction outage is absorbed inside.
                run_detector()
            continue

        # ---- abort path -------------------------------------------------
        reason, ev = abort
        lost_partial = min(max(ev.time_seconds - t, 0.0),
                           completion_time() - t)
        if lost_partial > 0:
            emit("compute", lost_partial, f"step:{done}", "compute",
                 ("step", "rework"))
            t += lost_partial
        buckets["rework"] += lost_partial
        domain = reason if reason != "retry_exhausted" else "none"
        emit("io", 0.0, f"failure:{reason}", "marker", ("failure", reason))

        if domain != "none":
            if config.elastic:
                if not shrink_fleet(lost_gpus_for(ev)):
                    # Nothing restorable will run: rework what's in
                    # flight beyond the best surviving checkpoint.
                    rec = newest_record(domain)
                    rollback_pending(rec["step"] if rec else 0)
                    break
            else:
                emit("io", config.replacement_seconds, "wait:replacement",
                     "io", ("waiting",))
                buckets["waiting"] += config.replacement_seconds
                t += config.replacement_seconds

        do_restore(domain, reason)
        coalesce_outage()
        if truncated_reason is not None:
            break

    completed = done >= config.steps
    if completed:
        # Run end materialises the final state: commit the tail steps.
        flush_pending()
        steps_completed = done
    else:
        # Truncated: progress is whatever the newest checkpoint (on any
        # tier) can restore; attempts beyond it are rework.
        rec = newest_record("none")
        steps_completed = rec["step"] if rec is not None else 0
        rollback_pending(steps_completed)
        flush_pending()

    result = RunResult(
        config=config,
        initial_plan=initial_plan,
        tokens_per_step=job.tokens_per_step,
        ideal_step_seconds=ideal_step,
        interval_steps=interval,
        steps_completed=steps_completed,
        completed=completed,
        truncated_reason=truncated_reason,
        elapsed_seconds=t,
        buckets=buckets,
        counters=counters,
        failures=failures,
        segments=segment_log,
        tier_intervals=dict(tier_intervals),
        tier_writes=tier_writes,
        restores=restores,
        mitigations=mitigation_log,
        log=log,
    )
    if metrics is not None:
        gauges = metrics.gauge(
            "run.seconds", unit="s",
            description="run wall-clock, by accounting bucket")
        for name, value in buckets.items():
            gauges.set(value, bucket=name)
        gauges.set(t, bucket="elapsed")
        metrics.gauge(
            "run.goodput_fraction", unit="ratio",
            description="committed work at the ideal rate over elapsed",
        ).set(result.goodput_fraction)
        fail_counter = metrics.counter(
            "run.failures", description="failure arrivals applied, by kind")
        for row in failures:
            fail_counter.inc(kind=row["kind"])
    return result
