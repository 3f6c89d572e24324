"""Declarative fault models over the 5D mesh (the Section 6.1 fault zoo).

Each model describes one production failure mode as *which ranks* it hits,
*which events* it matches, and *how* it perturbs a matched event's
duration.  One rule, :func:`make_modifier`, turns a model into a duration
modifier, and one applier, :func:`perturb_duration`, runs a plan's
modifiers on an event before it is submitted.  It has two call sites:

* the synthetic Section 6.1 workload (:mod:`repro.debug.workload`), with
  global ranks, per compute task and per collective participant;
* the lowered step graph, by rewriting per-op durations before
  :func:`repro.train.executor.execute_graph`
  (:func:`repro.faults.inject.apply_fault_plan`), with pipeline ranks.

A fault plan is the only way to perturb simulated time; the engine has no
hook for it.

The taxonomy (see ``docs/faults.md``):

=====================  ==============================================
:class:`ComputeStraggler`  flaky/thermally-throttled GPU: every compute
                           op scaled and/or padded
:class:`DegradedLink`      degraded NVLink or scale-out link: one
                           rank's or one group's comm durations scaled
:class:`HungRank`          one-shot stall, capped by the collective
                           timeout (NCCL-timeout-then-recover)
:class:`PeriodicJitter`    periodic compute hiccup (DVFS, daemon
                           interference)
:class:`CollectiveRetry`   transient network fault: the first N
                           matching collectives pay a retry penalty
:class:`HotExpert`         MoE token-routing imbalance: the rank hosting
                           the hottest expert does capacity-clipped
                           extra work and ships a heavier all-to-all
=====================  ==============================================

Perturbation state is per (modifier, rank) and created lazily, so one
model instance can drive many runs without sharing state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigError
from repro.sim.collectives import DEFAULT_COLLECTIVE_TIMEOUT_SECONDS

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.parallel.mesh import DeviceMesh

#: Duration modifier: ``(rank, stream, kind, name, duration)`` -> new
#: duration.  Modifiers may be stateful closures (one-shot hangs, periodic
#: jitter), so the order they see events in is part of their meaning.
DurationModifier = Callable[[int, str, str, str, float], float]

#: Event-name prefixes of each mesh dimension's communication, across both
#: simulation paths (workload names `pp:`/`dp:`; step-graph names
#: `p2p:`/`fsdp:` on their own streams).
_COMM_PREFIXES: Dict[str, Tuple[str, ...]] = {
    "tp": ("tp:",),
    "cp": ("cp:",),
    "ep": ("ep:",),
    "pp": ("pp:", "p2p:"),
    "dp": ("dp:", "fsdp:"),
}

#: Step-graph stream carrying each dimension's communication.
_COMM_STREAMS: Dict[str, str] = {
    "tp": "tp", "cp": "cp", "ep": "ep", "pp": "p2p", "dp": "fsdp",
}


def _check_dim(dim: str) -> None:
    if dim not in _COMM_PREFIXES:
        raise ConfigError(
            f"unknown dim {dim!r}; expected one of {sorted(_COMM_PREFIXES)}")


def _matches_dim_comm(dim: str, kind: str, stream: str, name: str) -> bool:
    """Is this event the given mesh dimension's communication?"""
    if kind != "comm":
        return False
    return name.startswith(_COMM_PREFIXES[dim]) or stream == _COMM_STREAMS[dim]


@dataclass(frozen=True)
class ComputeStraggler:
    """A persistently slow GPU: every compute op scaled, then padded."""

    rank: int
    extra_seconds: float = 0.5
    scale: float = 1.0

    kind_label = "compute_straggler"

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigError("rank must be >= 0")
        if self.extra_seconds < 0 or self.scale <= 0:
            raise ConfigError("need extra_seconds >= 0 and scale > 0")
        if self.extra_seconds == 0 and self.scale == 1.0:
            raise ConfigError("straggler must slow something down")

    def affected_ranks(self, mesh: "DeviceMesh") -> Optional[FrozenSet[int]]:
        return frozenset({self.rank})

    def matches_event(self, kind: str, stream: str, name: str) -> bool:
        return kind == "compute"

    def fresh_state(self) -> dict:
        return {}

    def perturb(self, duration: float, state: dict) -> float:
        return duration * self.scale + self.extra_seconds

    @property
    def culprit_rank(self) -> Optional[int]:
        return self.rank

    @property
    def expected_attribution(self) -> Optional[str]:
        return "compute"

    def describe(self) -> str:
        return (f"straggler rank={self.rank} x{self.scale:g} "
                f"+{self.extra_seconds:g}s/op")

    def to_dict(self) -> dict:
        return {"kind": self.kind_label, "rank": self.rank,
                "extra_seconds": self.extra_seconds, "scale": self.scale}


@dataclass(frozen=True)
class DegradedLink:
    """A degraded NVLink/scale-out link: ``dim`` comm durations scaled.

    Scope is either one rank's communication (``rank=``) or one whole
    ``dim`` process group (``group=``, an index into
    ``mesh.all_groups(dim)`` — e.g. one NVLink domain for ``dim="tp"``).
    """

    dim: str
    scale: float = 2.0
    group: Optional[int] = None
    rank: Optional[int] = None

    kind_label = "degraded_link"

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        if self.scale <= 0 or self.scale == 1.0:
            raise ConfigError("scale must be positive and != 1")
        if (self.group is None) == (self.rank is None):
            raise ConfigError("set exactly one of group= or rank=")

    def affected_ranks(self, mesh: "DeviceMesh") -> Optional[FrozenSet[int]]:
        if self.rank is not None:
            return frozenset({self.rank})
        groups = mesh.all_groups(self.dim)
        if not 0 <= self.group < len(groups):
            raise ConfigError(
                f"{self.dim} group {self.group} out of range "
                f"[0, {len(groups)})")
        return frozenset(groups[self.group])

    def matches_event(self, kind: str, stream: str, name: str) -> bool:
        return _matches_dim_comm(self.dim, kind, stream, name)

    def fresh_state(self) -> dict:
        return {}

    def perturb(self, duration: float, state: dict) -> float:
        return duration * self.scale

    @property
    def culprit_rank(self) -> Optional[int]:
        return self.rank

    @property
    def expected_attribution(self) -> Optional[str]:
        return "communication"

    def describe(self) -> str:
        where = (f"rank={self.rank}" if self.rank is not None
                 else f"group={self.group}")
        return f"degraded-link dim={self.dim} {where} x{self.scale:g}"

    def to_dict(self) -> dict:
        return {"kind": self.kind_label, "dim": self.dim,
                "scale": self.scale, "group": self.group, "rank": self.rank}


@dataclass(frozen=True)
class HungRank:
    """A rank stalls once, bounded by the collective timeout.

    Models an NCCL-timeout-then-recover hang: the first compute op after
    onset pays ``min(hang_seconds, timeout_seconds)`` extra, then the
    rank runs healthy again.  ``timeout_seconds=None`` means the shared
    watchdog default, :data:`repro.sim.collectives.
    DEFAULT_COLLECTIVE_TIMEOUT_SECONDS` — the same constant that bounds
    a failed attempt under :class:`repro.sim.collectives.RetryPolicy` —
    so no hang is ever unbounded.
    """

    rank: int
    hang_seconds: float = 5.0
    timeout_seconds: Optional[float] = None

    kind_label = "hung_rank"

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigError("rank must be >= 0")
        if self.hang_seconds <= 0:
            raise ConfigError("hang_seconds must be > 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigError("timeout_seconds must be > 0 when set")

    @property
    def effective_timeout_seconds(self) -> float:
        """The watchdog bound: explicit, or the shared default."""
        if self.timeout_seconds is None:
            return DEFAULT_COLLECTIVE_TIMEOUT_SECONDS
        return self.timeout_seconds

    @property
    def stall_seconds(self) -> float:
        """Effective one-shot stall after the timeout cap."""
        return min(self.hang_seconds, self.effective_timeout_seconds)

    def affected_ranks(self, mesh: "DeviceMesh") -> Optional[FrozenSet[int]]:
        return frozenset({self.rank})

    def matches_event(self, kind: str, stream: str, name: str) -> bool:
        return kind == "compute"

    def fresh_state(self) -> dict:
        return {"fired": False}

    def perturb(self, duration: float, state: dict) -> float:
        if state["fired"]:
            return duration
        state["fired"] = True
        return duration + self.stall_seconds

    @property
    def culprit_rank(self) -> Optional[int]:
        return self.rank

    @property
    def expected_attribution(self) -> Optional[str]:
        return "compute"

    def describe(self) -> str:
        cap = (f" (timeout {self.timeout_seconds:g}s)"
               if self.timeout_seconds is not None else "")
        return f"hung rank={self.rank} {self.hang_seconds:g}s{cap}"

    def to_dict(self) -> dict:
        return {"kind": self.kind_label, "rank": self.rank,
                "hang_seconds": self.hang_seconds,
                "timeout_seconds": self.timeout_seconds,
                "stall_seconds": self.stall_seconds}


@dataclass(frozen=True)
class PeriodicJitter:
    """Periodic compute hiccup: every ``period``-th compute op pays extra."""

    rank: int
    period: int = 2
    extra_seconds: float = 0.02

    kind_label = "periodic_jitter"

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigError("rank must be >= 0")
        if self.period < 1:
            raise ConfigError("period must be >= 1")
        if self.extra_seconds <= 0:
            raise ConfigError("extra_seconds must be > 0")

    def affected_ranks(self, mesh: "DeviceMesh") -> Optional[FrozenSet[int]]:
        return frozenset({self.rank})

    def matches_event(self, kind: str, stream: str, name: str) -> bool:
        return kind == "compute"

    def fresh_state(self) -> dict:
        return {"count": 0}

    def perturb(self, duration: float, state: dict) -> float:
        hit = state["count"] % self.period == 0
        state["count"] += 1
        return duration + self.extra_seconds if hit else duration

    @property
    def culprit_rank(self) -> Optional[int]:
        return self.rank

    @property
    def expected_attribution(self) -> Optional[str]:
        return "compute"

    def describe(self) -> str:
        return (f"jitter rank={self.rank} every {self.period} ops "
                f"+{self.extra_seconds:g}s")

    def to_dict(self) -> dict:
        return {"kind": self.kind_label, "rank": self.rank,
                "period": self.period, "extra_seconds": self.extra_seconds}


@dataclass(frozen=True)
class CollectiveRetry:
    """Transient network fault: first ``retries`` matching collectives
    each pay a retry penalty, then the link heals.

    ``rank=None`` hits every participant (a shared switch); a specific
    rank models one NIC flapping.
    """

    dim: str
    retries: int = 1
    extra_seconds: float = 0.05
    rank: Optional[int] = None

    kind_label = "collective_retry"

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        if self.retries < 1:
            raise ConfigError("retries must be >= 1")
        if self.extra_seconds <= 0:
            raise ConfigError("extra_seconds must be > 0")

    def affected_ranks(self, mesh: "DeviceMesh") -> Optional[FrozenSet[int]]:
        if self.rank is not None:
            return frozenset({self.rank})
        return None  # every rank

    def matches_event(self, kind: str, stream: str, name: str) -> bool:
        return _matches_dim_comm(self.dim, kind, stream, name)

    def fresh_state(self) -> dict:
        return {"left": self.retries}

    def perturb(self, duration: float, state: dict) -> float:
        if state["left"] <= 0:
            return duration
        state["left"] -= 1
        return duration + self.extra_seconds

    @property
    def culprit_rank(self) -> Optional[int]:
        return self.rank

    @property
    def expected_attribution(self) -> Optional[str]:
        return "communication"

    def describe(self) -> str:
        who = f" rank={self.rank}" if self.rank is not None else ""
        return (f"retry dim={self.dim}{who} first {self.retries} "
                f"+{self.extra_seconds:g}s")

    def to_dict(self) -> dict:
        return {"kind": self.kind_label, "dim": self.dim,
                "retries": self.retries,
                "extra_seconds": self.extra_seconds, "rank": self.rank}


@dataclass(frozen=True)
class HotExpert:
    """MoE token-routing imbalance: one EP rank hosts the hottest expert.

    Real routers over-select a few experts early in training.  The EP
    rank hosting the hot expert processes ``imbalance`` times the
    balanced expert load — clipped at ``capacity_factor``, past which
    tokens are dropped instead of computed (:mod:`repro.train.moe`) —
    so its expert compute *and* its share of the dispatch/combine
    all-to-all stretch by :attr:`work_scale` while its EP peers wait.
    Slowdown originates on the compute stream, so the Section 6.1
    search should localise the hosting rank and attribute it
    ``compute`` — routing skew looks exactly like a throttled GPU from
    the outside, which is why it belongs in the fault zoo.
    """

    rank: int
    imbalance: float = 3.0
    capacity_factor: float = 1.25

    kind_label = "hot_expert"

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigError("rank must be >= 0")
        if self.imbalance <= 1.0:
            raise ConfigError("imbalance must be > 1.0 (1.0 = balanced)")
        if self.capacity_factor <= 1.0:
            raise ConfigError(
                "capacity_factor must be > 1.0 for the hot expert to do "
                "any extra work (at <= 1.0 the excess is all drops)")

    @property
    def work_scale(self) -> float:
        """Realised slowdown: the routed load, clipped at capacity."""
        return min(self.imbalance, self.capacity_factor)

    def affected_ranks(self, mesh: "DeviceMesh") -> Optional[FrozenSet[int]]:
        return frozenset({self.rank})

    def matches_event(self, kind: str, stream: str, name: str) -> bool:
        if kind == "compute":
            return True
        return _matches_dim_comm("ep", kind, stream, name)

    def fresh_state(self) -> dict:
        return {}

    def perturb(self, duration: float, state: dict) -> float:
        return duration * self.work_scale

    @property
    def culprit_rank(self) -> Optional[int]:
        return self.rank

    @property
    def expected_attribution(self) -> Optional[str]:
        return "compute"

    def describe(self) -> str:
        return (f"hot-expert rank={self.rank} x{self.imbalance:g} "
                f"(cap {self.capacity_factor:g})")

    def to_dict(self) -> dict:
        return {"kind": self.kind_label, "rank": self.rank,
                "imbalance": self.imbalance,
                "capacity_factor": self.capacity_factor,
                "work_scale": self.work_scale}


def make_modifier(
    fault, ranks: Optional[FrozenSet[int]],
) -> DurationModifier:
    """The one perturbation rule: a duration modifier for one fault.

    ``ranks`` is the affected-rank set in the caller's rank space (None =
    every rank): global ranks for the synthetic workload, pipeline ranks
    for :func:`repro.faults.inject.apply_fault_plan`.  An event on
    an affected rank that the fault matches is perturbed with that rank's
    lazily-created state; every other event passes through unchanged.
    """
    state: Dict[int, dict] = {}

    def modifier(rank: int, stream: str, kind: str, name: str,
                 duration: float) -> float:
        if ranks is not None and rank not in ranks:
            return duration
        if not fault.matches_event(kind, stream, name):
            return duration
        return fault.perturb(
            duration, state.setdefault(rank, fault.fresh_state()))

    return modifier


def perturb_duration(
    modifiers: Sequence[DurationModifier],
    rank: int, stream: str, kind: str, name: str, duration: float,
) -> Tuple[float, Tuple[int, ...]]:
    """Run a plan's modifiers on one event's duration, in plan order.

    Each modifier sees the previous one's output.  Returns the final
    duration and the indices of the modifiers that changed it; an event
    counts as faulted when the final duration differs from ``duration``
    (a chain that restores it bitwise, such as x2.0 then x0.5, does not).
    Raises ``ValueError`` if the result is negative.
    """
    changed: Tuple[int, ...] = ()
    out = duration
    for idx, modifier in enumerate(modifiers):
        perturbed = modifier(rank, stream, kind, name, out)
        if perturbed != out:
            changed += (idx,)
        out = perturbed
    if out < 0:
        raise ValueError(f"fault plan made {name!r} negative ({out})")
    return out, changed


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of faults injected together."""

    faults: Tuple[object, ...] = ()

    def __iter__(self) -> Iterator[object]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def validate(self, mesh: "DeviceMesh") -> None:
        """Raise :class:`~repro.errors.ConfigError` for faults outside
        the mesh."""
        for fault in self.faults:
            ranks = fault.affected_ranks(mesh)
            if ranks is None:
                continue
            bad = [r for r in ranks if not 0 <= r < mesh.world_size]
            if bad:
                raise ConfigError(
                    f"fault {fault.describe()!r} targets ranks {sorted(bad)} "
                    f"outside world [0, {mesh.world_size})")

    def expected_detection(self) -> Tuple[Optional[int], Optional[str]]:
        """(rank, attribution) the Section 6.1 search should pin, if the
        plan has one unambiguous compute-side culprit; (None, None)
        otherwise (comm faults are group-visible, not rank-exact)."""
        culprits = {
            f.culprit_rank for f in self.faults
            if f.expected_attribution == "compute"
            and f.culprit_rank is not None
        }
        if len(culprits) == 1:
            return next(iter(culprits)), "compute"
        return None, None

    def describe(self) -> str:
        if not self.faults:
            return "no faults"
        return "; ".join(f.describe() for f in self.faults)

    def to_dicts(self) -> list:
        return [f.to_dict() for f in self.faults]


#: ``--fault`` spec types -> constructor + typed field parsers.
_SPEC_TYPES = {
    "straggler": (ComputeStraggler,
                  {"rank": int, "extra": ("extra_seconds", float),
                   "scale": float}),
    "link": (DegradedLink,
             {"dim": str, "scale": float, "group": int, "rank": int}),
    "hang": (HungRank,
             {"rank": int, "seconds": ("hang_seconds", float),
              "timeout": ("timeout_seconds", float)}),
    "jitter": (PeriodicJitter,
               {"rank": int, "period": int,
                "extra": ("extra_seconds", float)}),
    "retry": (CollectiveRetry,
              {"dim": str, "retries": int,
               "extra": ("extra_seconds", float), "rank": int}),
    "hotexpert": (HotExpert,
                  {"rank": int, "imbalance": float,
                   "capacity": ("capacity_factor", float)}),
}


def parse_fault_spec(spec: str):
    """Parse one CLI fault spec, e.g. ``straggler:rank=6,extra=0.5``.

    Format: ``<type>:key=value[,key=value...]`` with types
    ``straggler | link | hang | jitter | retry`` (see ``docs/faults.md``
    for every key).  Raises :class:`~repro.errors.ConfigError` with a
    usage hint on any malformed spec.
    """
    head, _, rest = spec.partition(":")
    entry = _SPEC_TYPES.get(head.strip())
    if entry is None:
        raise ConfigError(
            f"unknown fault type {head.strip()!r}; choose from "
            f"{sorted(_SPEC_TYPES)}")
    cls, fields = entry
    kwargs = {}
    for part in filter(None, (p.strip() for p in rest.split(","))):
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq or key not in fields:
            raise ConfigError(
                f"bad {head.strip()!r} field {part!r}; expected one of "
                f"{sorted(fields)}")
        target = fields[key]
        name, conv = target if isinstance(target, tuple) else (key, target)
        try:
            kwargs[name] = conv(value.strip())
        except ValueError:
            raise ConfigError(
                f"cannot parse {part!r} as {conv.__name__}") from None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid fault spec {spec!r}: {err}") from None


def _straggler_default(world_size: int) -> FaultPlan:
    # A 25%-throttled GPU on the second-to-last rank — the paper's
    # running Figure 8 example shape.
    return FaultPlan((
        ComputeStraggler(rank=max(world_size - 2, 0),
                         extra_seconds=0.0, scale=1.25),
    ))


def _hot_expert_default(world_size: int) -> FaultPlan:
    # One 3x-hot expert (clipped at a 1.25 capacity factor) on the
    # second-to-last rank, mirroring the straggler preset's shape.
    return FaultPlan((
        HotExpert(rank=max(world_size - 2, 0), imbalance=3.0),
    ))


#: Named fault scenarios usable from code and ``repro faults --preset``.
FAULT_PRESETS: Dict[str, "object"] = {
    "straggler-default": _straggler_default,
    "hot-expert-default": _hot_expert_default,
}


def fault_preset(name: str, world_size: int) -> FaultPlan:
    """Build a named preset :class:`FaultPlan` for a given world size."""
    if world_size < 1:
        raise ConfigError("world_size must be >= 1")
    builder = FAULT_PRESETS.get(name)
    if builder is None:
        raise ConfigError(
            f"unknown fault preset {name!r}; choose from "
            f"{sorted(FAULT_PRESETS)}")
    return builder(world_size)
