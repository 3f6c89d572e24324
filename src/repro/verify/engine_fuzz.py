"""Differential engine fuzzing: fast simulator vs the frozen reference.

The fast path in :mod:`repro.sim.engine` promises *bitwise* equivalence
with the pre-optimisation engine, which is frozen verbatim in
``tests/harness/reference_engine.py``.  This module samples random
submission sequences — ``run`` tasks with dependency fans and release
times, and ``record`` splices — replays each sequence
through both engines, and diffs every observable: each
:class:`TraceEvent` field, global and per-rank makespans, per-stream
busy/idle accounting, and the ``events_for`` views.

Determinism is the contract of the shared campaign runner
(:mod:`repro.verify.campaign`): ``run_engine_fuzz(cases, seed)`` visits
the same sequences in the same order everywhere, so a failure's seed
plus its shrunk sequence is a complete reproduction recipe.  Failures
shrink to a minimal diverging submission sequence by dropping whole
submissions (dependency references onto dropped submissions are patched
out) and simplifying the survivors (deps, then tags, stripped one at a
time).

The ``engine`` hook mirrors ``fuzz.py``'s ``build`` hook: injecting a
deliberately corrupted fast engine must make the harness report and
shrink the divergence — that is how the harness itself is verified.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.engine import Simulator
from repro.verify.campaign import CampaignResult, run_campaign

#: Streams the fuzzer submits onto — the ones real lowerings use.
_STREAMS = ("compute", "tp", "p2p", "fsdp")

#: Cap on divergences reported per case.
_MAX_PROBLEMS = 12


# ----------------------------------------------------------------------
# Loading the frozen reference engine
# ----------------------------------------------------------------------

def load_reference_simulator() -> type:
    """The frozen pre-fast-path ``Simulator`` from ``tests/harness``.

    Tries the package import first (works when the repo root is on
    ``sys.path``, e.g. under pytest or ``python -m repro`` from a
    checkout), then falls back to a file-path import relative to this
    source tree.  Raises ``RuntimeError`` outside a source checkout —
    engine fuzzing is a development/CI verification, not a runtime
    feature.
    """
    try:
        from tests.harness.reference_engine import ReferenceSimulator
        return ReferenceSimulator
    except ImportError:
        pass
    path = (Path(__file__).resolve().parents[3]
            / "tests" / "harness" / "reference_engine.py")
    if not path.exists():
        raise RuntimeError(
            "engine fuzzing needs the frozen reference engine at "
            f"{path}, which only exists in a source checkout")
    spec = importlib.util.spec_from_file_location(
        "_repro_reference_engine", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ReferenceSimulator


# ----------------------------------------------------------------------
# Submission sequences
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SubmitOp:
    """One replayable engine submission.

    ``deps`` name *producer uids* (stable across shrinking), not list
    positions: dropping a submission simply drops its uid from every
    later ``deps`` tuple instead of renumbering the sequence.
    """

    uid: int
    op: str  # "run" | "record"
    rank: int = 0
    stream: str = "compute"
    duration: float = 0.0
    name: str = ""
    kind: str = "compute"
    deps: Tuple[int, ...] = ()
    not_before: float = 0.0
    tags: Tuple[str, ...] = ()
    start: float = 0.0  # record only
    end: float = 0.0    # record only

    def describe(self) -> str:
        if self.op == "run":
            return (f"run(uid={self.uid}, rank={self.rank}, "
                    f"stream={self.stream!r}, duration={self.duration!r}, "
                    f"deps={self.deps}, not_before={self.not_before!r}, "
                    f"tags={self.tags})")
        return (f"record(uid={self.uid}, rank={self.rank}, "
                f"stream={self.stream!r}, start={self.start!r}, "
                f"end={self.end!r})")

    def to_dict(self) -> dict:
        out = {"uid": self.uid, "op": self.op}
        for key in ("rank", "stream", "duration", "name", "kind",
                    "deps", "not_before", "tags", "start", "end"):
            value = getattr(self, key)
            if value not in ((), 0, 0.0, ""):
                out[key] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class EngineFuzzCase:
    """One sampled submission sequence."""

    ops: Tuple[SubmitOp, ...]

    @property
    def cost(self) -> int:
        """Size measure the shrinker minimises."""
        return len(self.ops) + sum(len(op.deps) for op in self.ops)

    def describe(self) -> str:
        return "\n".join(op.describe() for op in self.ops)

    def to_dict(self) -> dict:
        return {"ops": [op.to_dict() for op in self.ops]}


def sample_case(rng: np.random.Generator) -> EngineFuzzCase:
    """Draw one valid submission sequence from a deterministic RNG: 3 to
    24 ops over 8 ranks.

    Durations are full-entropy doubles (not round numbers) so bitwise
    divergence in arithmetic order cannot hide behind representable
    values; zero durations are sampled explicitly.
    """
    world = 8
    n_ops = int(rng.integers(3, 25))
    ops: List[SubmitOp] = []
    producers: List[int] = []  # uids that yield events
    for uid in range(n_ops):
        draw = rng.random()
        stream = _STREAMS[int(rng.integers(0, len(_STREAMS)))]
        duration = 0.0 if rng.random() < 0.08 else float(rng.random()) * 2.0
        deps = tuple(
            int(u) for u in sorted(rng.choice(
                producers, size=min(len(producers),
                                    int(rng.integers(0, 3))),
                replace=False))
        ) if producers else ()
        tags = ("fuzz",) if rng.random() < 0.2 else ()
        if draw < 0.85:
            ops.append(SubmitOp(
                uid=uid, op="run", rank=int(rng.integers(0, world)),
                stream=stream, duration=duration, name=f"op{uid}",
                kind="compute" if stream == "compute" else "comm",
                deps=deps,
                not_before=(float(rng.random()) * 3.0
                            if rng.random() < 0.2 else 0.0),
                tags=tags))
            producers.append(uid)
        else:
            start = float(rng.random()) * 3.0
            ops.append(SubmitOp(
                uid=uid, op="record", rank=int(rng.integers(0, world)),
                stream=stream, name=f"rec{uid}", kind="comm",
                start=start, end=start + duration, tags=tags))
            producers.append(uid)
    return EngineFuzzCase(ops=tuple(ops))


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------

def _event_class(sim) -> type:
    """The ``TraceEvent`` class of the module defining this engine."""
    import sys

    module = sys.modules.get(type(sim).__module__)
    cls = getattr(module, "TraceEvent", None)
    if cls is None:
        from repro.sim.engine import TraceEvent
        return TraceEvent
    return cls


def replay_case(case: EngineFuzzCase, sim) -> Tuple[str, ...]:
    """Replay a sequence onto one engine; returns the submission log.

    The log records each submission's outcome ("ok" or the raised
    exception) — both engines must produce identical logs, so a fast
    path that stops raising where the reference raised is itself a
    divergence.  Submissions that raised produce no events and are
    skipped as dependency producers.
    """
    events_by_uid: Dict[int, object] = {}
    log: List[str] = []
    for op in case.ops:
        try:
            if op.op == "run":
                after = [events_by_uid[u] for u in op.deps
                         if u in events_by_uid]
                event = sim.run(
                    rank=op.rank, stream=op.stream, duration=op.duration,
                    name=op.name, kind=op.kind, after=after or None,
                    not_before=op.not_before, tags=op.tags)
                events_by_uid[op.uid] = event
            else:  # record
                # Splice with the engine's own event class (the
                # reference's dataclass vs the fast slotted record).
                cls = _event_class(sim)
                event = cls(op.name, op.kind, op.rank, op.stream,
                            op.start, op.end, (), op.tags)
                sim.record(event)
                events_by_uid[op.uid] = event
            log.append("ok")
        except ValueError as err:
            log.append(f"ValueError: {err}")
    return tuple(log)


# ----------------------------------------------------------------------
# Differential check
# ----------------------------------------------------------------------

def _floats_identical(a: float, b: float) -> bool:
    if a != b:
        return False
    if a == 0.0:
        return math.copysign(1.0, a) == math.copysign(1.0, b)
    return True


_EVENT_FIELDS = ("name", "kind", "rank", "stream", "start", "end",
                 "group", "tags")


def compare_engines(ref, fast) -> List[str]:
    """Diff every observable of two engines fed identical submissions."""
    problems: List[str] = []
    ref_events, fast_events = ref.events, fast.events
    if len(ref_events) != len(fast_events):
        problems.append(f"event count: reference={len(ref_events)} "
                        f"fast={len(fast_events)}")
    for i, (r, f) in enumerate(zip(ref_events, fast_events)):
        for fld in _EVENT_FIELDS:
            rv, fv = getattr(r, fld), getattr(f, fld)
            identical = (_floats_identical(rv, fv)
                         if isinstance(rv, float) else rv == fv)
            if not identical:
                problems.append(
                    f"events[{i}].{fld}: reference={rv!r} fast={fv!r}")
                if len(problems) >= _MAX_PROBLEMS:
                    return problems
    if problems:
        return problems
    if not _floats_identical(ref.makespan(), fast.makespan()):
        problems.append(f"makespan: reference={ref.makespan()!r} "
                        f"fast={fast.makespan()!r}")
    ranks = sorted({e.rank for e in ref_events})
    streams = sorted({e.stream for e in ref_events})
    for rank in ranks:
        if not _floats_identical(ref.makespan([rank]),
                                 fast.makespan([rank])):
            problems.append(
                f"makespan([{rank}]): reference={ref.makespan([rank])!r} "
                f"fast={fast.makespan([rank])!r}")
        if [e.name for e in ref.events_for(rank)] != \
                [e.name for e in fast.events_for(rank)]:
            problems.append(f"events_for({rank}) order differs")
        for stream in streams:
            for label, rv, fv in (
                ("busy", ref.busy_time(rank, stream),
                 fast.busy_time(rank, stream)),
                ("idle", ref.idle_time(rank, stream),
                 fast.idle_time(rank, stream)),
                ("now", ref.now(rank, stream), fast.now(rank, stream)),
            ):
                if not _floats_identical(rv, fv):
                    problems.append(
                        f"{label}({rank}, {stream!r}): reference={rv!r} "
                        f"fast={fv!r}")
            if len(problems) >= _MAX_PROBLEMS:
                return problems[:_MAX_PROBLEMS]
    return problems


def check_case(
    case: EngineFuzzCase,
    reference_cls: type,
    engine: Callable[[], object] = Simulator,
) -> List[str]:
    """Replay one sequence through both engines and diff everything."""
    ref = reference_cls()
    fast = engine()
    ref_log = replay_case(case, ref)
    fast_log = replay_case(case, fast)
    if ref_log != fast_log:
        for i, (r, f) in enumerate(zip(ref_log, fast_log)):
            if r != f:
                return [f"submission {i} outcome: reference={r!r} "
                        f"fast={f!r}"]
        return [f"submission log length: reference={len(ref_log)} "
                f"fast={len(fast_log)}"]
    return compare_engines(ref, fast)


# ----------------------------------------------------------------------
# Shrinking neighbours
# ----------------------------------------------------------------------

def _drop_uid(ops: Sequence[SubmitOp], uid: int) -> Tuple[SubmitOp, ...]:
    """The sequence without ``uid``, dependency references patched out."""
    out = []
    for op in ops:
        if op.uid == uid:
            continue
        if uid in op.deps:
            op = replace(op, deps=tuple(u for u in op.deps if u != uid))
        out.append(op)
    return tuple(out)


def case_neighbours(case: EngineFuzzCase) -> List[EngineFuzzCase]:
    """Strictly-smaller neighbours, biggest reduction first: whole
    submissions dropped (dependency references patched out), then one
    simplification (deps, then tags) per submission."""
    out: List[EngineFuzzCase] = []
    for op in case.ops:
        out.append(replace(case, ops=_drop_uid(case.ops, op.uid)))
    for i, op in enumerate(case.ops):
        simplified = None
        if op.deps:
            simplified = replace(op, deps=())
        elif op.tags:
            simplified = replace(op, tags=())
        if simplified is not None:
            out.append(replace(case, ops=(
                case.ops[:i] + (simplified,) + case.ops[i + 1:])))
    return sorted((c for c in out if c.cost < case.cost),
                  key=lambda c: c.cost)


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------

def run_engine_fuzz(
    cases: int,
    seed: int = 0,
    engine: Callable[[], object] = Simulator,
) -> CampaignResult[EngineFuzzCase, Tuple[str, ...]]:
    """Fuzz ``cases`` submission sequences against the reference engine
    and shrink every divergence; ``engine`` is the fast-engine factory
    (the hook corrupted-engine self-tests inject through)."""
    reference_cls = load_reference_simulator()

    def check(case: EngineFuzzCase) -> Optional[Tuple[str, ...]]:
        return tuple(check_case(case, reference_cls, engine)) or None

    return run_campaign(cases, seed, sample_case, check, case_neighbours,
                        nouns=("case", "problems"))


__all__ = [
    "EngineFuzzCase",
    "SubmitOp",
    "case_neighbours",
    "check_case",
    "compare_engines",
    "load_reference_simulator",
    "replay_case",
    "run_engine_fuzz",
    "sample_case",
]
