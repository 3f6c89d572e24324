"""FROZEN reference engine — the pre-fast-path ``repro.sim.engine``, verbatim.

This module is the differential-testing oracle for the fast engine: it is
the exact simulator implementation the repository shipped before the
fast-path refactor, copied here unchanged (only this header and the class
alias at the bottom were added, and ``busy_time`` sums in an explicit
left-to-right loop, which keeps its Python 3.11 bits on 3.12 as well).
Do NOT edit it to track engine changes — its whole value is that it does
not move.  The harness in this package replays every seeded workload
through both engines and asserts bitwise equality of the resulting
``TraceEvent`` streams, makespans, and busy/idle accounting;
``repro verify --engine`` fuzzes random submission sequences against it
(see ``docs/engine.md`` for the equivalence contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.collectives import DEFAULT_RETRY_POLICY, RetryPolicy

StreamKey = Tuple[int, str]

#: Duration-modifier hook: ``(rank, stream, kind, name, duration)`` -> new
#: duration.  Modifiers may be stateful closures (one-shot hangs, periodic
#: jitter); they run in registration order, each seeing the previous one's
#: output.
DurationModifier = Callable[[int, str, str, str, float], float]


@dataclass(frozen=True)
class TraceEvent:
    """One completed task on one rank's stream.

    Attributes:
        name: Operation name, e.g. ``"fwd:mb3:vs1"`` or ``"allgather:kv"``.
        kind: Category used by trace analysis: ``"compute"``,
            ``"comm"``, or ``"exposed_comm"``.
        rank: Global rank the event ran on.
        stream: Stream name within the rank.
        start: Start timestamp in seconds.
        end: End timestamp in seconds.
        group: Optional tuple of participant ranks for collectives.
        tags: Free-form labels; the engine adds ``"faulted"`` to any event
            whose duration a registered modifier changed.
    """

    name: str
    kind: str
    rank: int
    stream: str
    start: float
    end: float
    group: Tuple[int, ...] = ()
    tags: Tuple[str, ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "TraceEvent") -> bool:
        """Whether two events overlap in wall-clock time."""
        return self.start < other.end and other.start < self.end


class Simulator:
    """Timeline simulator over (rank, stream) resources.

    Example:
        >>> sim = Simulator()
        >>> a = sim.run(rank=0, stream="compute", duration=1.0, name="fwd")
        >>> b = sim.run(rank=1, stream="compute", duration=1.0, name="fwd",
        ...             after=[a])
        >>> b.start
        1.0
    """

    def __init__(self) -> None:
        self._free_at: Dict[StreamKey, float] = {}
        self._events: List[TraceEvent] = []
        self._modifiers: List[DurationModifier] = []

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------

    def add_duration_modifier(self, modifier: DurationModifier) -> None:
        """Register a per-rank duration modifier (fault injection).

        Every subsequent :meth:`run` and :meth:`run_collective` duration
        flows through the chain; see :data:`DurationModifier`.
        """
        self._modifiers.append(modifier)

    def _modified_duration(
        self, rank: int, stream: str, kind: str, name: str, duration: float
    ) -> Tuple[float, bool]:
        """Duration after the modifier chain, plus whether it changed."""
        out = duration
        for modifier in self._modifiers:
            out = modifier(rank, stream, kind, name, out)
        if out < 0:
            raise ValueError(
                f"duration modifier made task {name!r} negative ({out})")
        return out, out != duration

    @staticmethod
    def _tagged(tags: Tuple[str, ...], faulted: bool) -> Tuple[str, ...]:
        if faulted and "faulted" not in tags:
            return tags + ("faulted",)
        return tags

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------

    def run(
        self,
        rank: int,
        stream: str,
        duration: float,
        name: str,
        kind: str = "compute",
        after: Optional[Sequence[TraceEvent]] = None,
        not_before: float = 0.0,
        tags: Tuple[str, ...] = (),
    ) -> TraceEvent:
        """Run one task on a single rank's stream and return its event.

        The task starts when the stream is free, every event in ``after``
        has finished, and ``not_before`` has passed.
        """
        if duration < 0:
            raise ValueError(f"negative duration for task {name!r}")
        duration, faulted = self._modified_duration(
            rank, stream, kind, name, duration)
        key = (rank, stream)
        ready = max(
            self._free_at.get(key, 0.0),
            not_before,
            max((dep.end for dep in after or ()), default=0.0),
        )
        event = TraceEvent(
            name=name, kind=kind, rank=rank, stream=stream,
            start=ready, end=ready + duration,
            tags=self._tagged(tuple(tags), faulted),
        )
        self._free_at[key] = event.end
        self._events.append(event)
        return event

    def run_collective(
        self,
        ranks: Sequence[int],
        stream: str,
        duration: float,
        name: str,
        after: Optional[Dict[int, Sequence[TraceEvent]]] = None,
        kind: str = "comm",
        skew: Optional[Dict[int, float]] = None,
        tags: Tuple[str, ...] = (),
        failed_attempts: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> Dict[int, TraceEvent]:
        """Run a synchronising collective across ``ranks``.

        Every participant joins at its own ready time; the collective's
        payload transfer begins only once the **slowest** participant has
        joined (this is what makes slow-rank localisation, Section 6.1,
        possible: fast ranks show long collectives).  ``skew`` adds a
        per-rank extra delay before joining, used for fault injection.

        Registered duration modifiers apply per participant: the payload
        transfer takes the **maximum** of the per-rank modified durations,
        so one rank's degraded link slows the whole collective, and only
        the perturbed participants are tagged ``"faulted"``.

        ``failed_attempts`` plays out the timeout→retry→backoff ladder of
        ``retry_policy`` (default :data:`~repro.sim.collectives.
        DEFAULT_RETRY_POLICY`) before the successful attempt: each failed
        attempt occupies the stream for the policy's watchdog timeout and
        is tagged ``"retry"``, each backoff gap is tagged
        ``("retry", "backoff")``.  Raises ``ValueError`` if the policy's
        retry budget cannot absorb that many failures — the caller is
        expected to model a job abort instead (:mod:`repro.resilience`).

        Returns one event per rank for the **successful** attempt,
        spanning [join, collective end], so a rank's event duration
        includes its wait for stragglers.
        """
        if failed_attempts < 0:
            raise ValueError("failed_attempts must be >= 0")
        if failed_attempts:
            policy = retry_policy or DEFAULT_RETRY_POLICY
            if policy.exhausted_by(failed_attempts):
                raise ValueError(
                    f"collective {name!r}: {failed_attempts} failed attempts "
                    f"exceed the retry budget (max_retries="
                    f"{policy.max_retries}); model an abort instead")
            for attempt in range(failed_attempts):
                self._run_collective_once(
                    ranks, stream, policy.timeout_seconds,
                    f"{name}#try{attempt}", after, kind, skew,
                    tags + ("retry",))
                # Later attempts are gated by stream order alone.
                after = None
                skew = None
                backoff = policy.backoff_seconds(attempt)
                if backoff > 0:
                    for rank in ranks:
                        self.run(
                            rank, stream, backoff, f"{name}#backoff{attempt}",
                            kind=kind, tags=tags + ("retry", "backoff"))
        return self._run_collective_once(
            ranks, stream, duration, name, after, kind, skew, tags)

    def _run_collective_once(
        self,
        ranks: Sequence[int],
        stream: str,
        duration: float,
        name: str,
        after: Optional[Dict[int, Sequence[TraceEvent]]],
        kind: str,
        skew: Optional[Dict[int, float]],
        tags: Tuple[str, ...],
    ) -> Dict[int, TraceEvent]:
        if not ranks:
            raise ValueError("collective needs at least one rank")
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate ranks in collective {name!r}")
        after = after or {}
        skew = skew or {}
        rank_durations = {}
        rank_faulted = {}
        for rank in ranks:
            rank_durations[rank], rank_faulted[rank] = \
                self._modified_duration(rank, stream, kind, name, duration)
        join_times = {}
        for rank in ranks:
            key = (rank, stream)
            deps_end = max((dep.end for dep in after.get(rank, ())), default=0.0)
            join_times[rank] = (
                max(self._free_at.get(key, 0.0), deps_end) + skew.get(rank, 0.0)
            )
        start = max(join_times.values())
        end = start + max(rank_durations.values())
        events = {}
        for rank in ranks:
            event = TraceEvent(
                name=name, kind=kind, rank=rank, stream=stream,
                start=join_times[rank], end=end, group=tuple(ranks),
                tags=self._tagged(tuple(tags), rank_faulted[rank]),
            )
            self._free_at[(rank, stream)] = end
            self._events.append(event)
            events[rank] = event
        return events

    def advance(self, rank: int, stream: str, until: float) -> None:
        """Force a stream to be busy until a given time (models stalls)."""
        key = (rank, stream)
        self._free_at[key] = max(self._free_at.get(key, 0.0), until)

    def record(self, event: TraceEvent) -> None:
        """Append an externally-timed event, advancing its stream.

        Used to splice timelines together (e.g. merging per-phase traces);
        the event's own start/end are trusted as-is.
        """
        if event.end < event.start:
            raise ValueError(f"event {event.name!r} ends before it starts")
        key = (event.rank, event.stream)
        self._free_at[key] = max(self._free_at.get(key, 0.0), event.end)
        self._events.append(event)

    # ------------------------------------------------------------------
    # Inspection API
    # ------------------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """All recorded events, in submission order."""
        return list(self._events)

    def now(self, rank: int, stream: str) -> float:
        """Time at which a stream becomes free."""
        return self._free_at.get((rank, stream), 0.0)

    def makespan(self, ranks: Optional[Iterable[int]] = None) -> float:
        """Latest end time across the given ranks (or all ranks)."""
        rank_set = set(ranks) if ranks is not None else None
        ends = [
            e.end for e in self._events
            if rank_set is None or e.rank in rank_set
        ]
        return max(ends, default=0.0)

    def events_for(
        self, rank: int, stream: Optional[str] = None, kind: Optional[str] = None
    ) -> List[TraceEvent]:
        """Events on one rank, optionally filtered by stream and kind."""
        return [
            e for e in self._events
            if e.rank == rank
            and (stream is None or e.stream == stream)
            and (kind is None or e.kind == kind)
        ]

    def overlapping_events(
        self,
    ) -> List[Tuple[TraceEvent, TraceEvent]]:
        """Pairs of events that overlap in time on the same (rank, stream).

        A correct timeline never has any: each (rank, stream) models one
        serially-executing CUDA stream.  The ``submit-in-causal-order``
        contract makes overlap impossible through :meth:`run`, but
        :meth:`record` trusts caller-supplied times, so spliced timelines
        can violate it — this is the raw check behind the
        ``stream-overlap`` invariant in :mod:`repro.verify.invariants`.
        """
        by_stream: Dict[StreamKey, List[TraceEvent]] = {}
        for e in self._events:
            by_stream.setdefault((e.rank, e.stream), []).append(e)
        offenders: List[Tuple[TraceEvent, TraceEvent]] = []
        for events in by_stream.values():
            ordered = sorted(events, key=lambda e: (e.start, e.end))
            active: Optional[TraceEvent] = None  # max-end event so far
            for cur in ordered:
                if active is not None and active.overlaps(cur):
                    offenders.append((active, cur))
                if active is None or cur.end > active.end:
                    active = cur
        return offenders

    def busy_time(self, rank: int, stream: str = "compute") -> float:
        """Total busy duration on a stream (events never overlap per stream)."""
        total = 0
        for e in self.events_for(rank, stream):
            total = total + e.duration
        return total

    def idle_time(self, rank: int, stream: str = "compute") -> float:
        """Makespan minus busy time on one rank's stream."""
        return self.makespan() - self.busy_time(rank, stream)


#: Explicit oracle aliases, so harness code reads unambiguously.
ReferenceSimulator = Simulator
ReferenceTraceEvent = TraceEvent
